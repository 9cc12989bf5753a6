module uncharted/benchmark

go 1.22

require uncharted v0.0.0

replace uncharted => ../
