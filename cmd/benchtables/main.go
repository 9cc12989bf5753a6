// Command benchtables regenerates every table and figure of the
// paper's evaluation from synthesized captures and prints (or writes)
// the paper-vs-measured reports. EXPERIMENTS.md is produced from this
// tool's output.
//
// Usage:
//
//	benchtables                 # all experiments at default scale
//	benchtables -exp table3     # one experiment
//	benchtables -scale 0.2 -out results/   # faster, write files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"uncharted/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")

	exp := flag.String("exp", "", "experiment id to regenerate (empty = all); one of: "+
		strings.Join(experiments.NewRunner(1, 1).IDs(), ", "))
	scale := flag.Float64("scale", 1, "capture duration scale (lower = faster)")
	seed := flag.Int64("seed", 42, "simulation seed")
	out := flag.String("out", "", "directory to write per-experiment .txt files (empty = stdout)")
	asJSON := flag.Bool("json", false, "emit results as a JSON array on stdout")
	flag.Parse()

	r := experiments.NewRunner(*scale, *seed)
	var results []experiments.Result
	if *exp == "" {
		var err error
		results, err = r.RunAll()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		res, err := r.Run(*exp)
		if err != nil {
			log.Fatal(err)
		}
		results = []experiments.Result{res}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, res := range results {
		if *out == "" {
			fmt.Printf("================ %s — %s ================\n%s\n", res.ID, res.Title, res.Text)
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*out, res.ID+".txt")
		body := fmt.Sprintf("%s — %s\n\n%s", res.ID, res.Title, res.Text)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
}
