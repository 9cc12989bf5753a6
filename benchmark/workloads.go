package main

import "time"

// runSeconds is the nominal run length the fixed work below is sized
// for on the reference machine (BENCHMARK.json's run_seconds). The
// driver's --seconds scales every count proportionally; at the nominal
// value the counts are exactly these constants, so attempted and every
// allocation count repeat from run to run.
const runSeconds = 20

// Engine shape shared by every stage: what `profiler -workers 2
// -readers 2` runs.
const (
	engineWorkers = 2
	engineReaders = 2
	clusterK      = 5
	clusterSeed   = 1202
)

// The warm-up capture (a prefix of the workload's capture) trains the
// IDS baseline, is the stored drift baseline, and is what the fleet's
// tenants ingest; set-up is repeated setupRepeats times per run.
const (
	warmupPackets = 50000
	setupRepeats  = 3
)

// Live stage constants.
const (
	liveRatePktS = 16000
	liveSnapshot = 100 * time.Millisecond
	// livePoll is how often the engine's reader re-asks a paced source
	// that had nothing due. The engine's 25 ms default would put a
	// 0–25 ms sawtooth (beating against the snapshot tick) on top of
	// every publish lag; at 2 ms the lag measures the system's seal,
	// merge, build and publish work instead of the poll phase.
	livePoll = 2 * time.Millisecond
	// liveQueueDepth is the reader's buffering budget in batches. Short
	// polls mean small batches (~16 packets), so the default 64 would
	// hold only ~30 ms of traffic per shard and DropNewest would shed
	// packets whenever a seal or a descheduled vCPU stalls a shard that
	// long; 1024 batches ride out half a second.
	liveQueueDepth = 1024
	livePointCap   = 512
)

// Serve stage constants.
const (
	// serveLimitMS is the latency limit a control-room read should meet;
	// the share of requests over it is reported. serveTimeoutMS is when
	// a client gives up: only that counts a request as failed, because a
	// descheduled vCPU can hold any single request for 100 ms here.
	serveLimitMS    = 25.0
	serveTimeoutMS  = 1000.0
	serveClients    = 2
	epochRequests   = 250 // 1 POST /partial + 249 GETs
	epochsPerBlock  = 4   // per client
	queryKeys       = 6000
	conditionalRate = 0.6
	tenantSnapshot  = 250 * time.Millisecond
)

// refNominal is the frozen cost of one reference-kernel run over a
// workload's own capture on the reference machine: the median
// CPU seconds over the builder's calibration runs (`benchmark
// -calibrate`). Par is the two-goroutine kernel the offline stage
// pairs with, Ser the one-goroutine kernel of the live and serve
// stages. Re-measure only when the reference kernel or a capture
// generator changes; changing them re-bases every time metric.
type refNominal struct{ Par, Ser float64 }

// workload is one named input set (BENCHMARK.json and README.md say why
// each exists). Every workload runs the same
// journey — offline passes, a live feed, a served fleet — because the
// driver wants every end-to-end metric from every run; what differs is
// the capture (which dialect codecs work) and which stage carries the
// bulk of the fixed work (so that stage's metrics are the best
// resolved there, and its layers are the ones a profile of that
// workload shows).
type workload struct {
	Name    string
	Capture captureSpec
	// Protocols is the analyzer's protocol param: "" (IEC 104 only) or
	// "auto".
	Protocols string
	// Fixed work at the nominal run length.
	Passes      int // offline passes through the profiler graph
	LivePackets int // packets fed open-loop at liveRatePktS
	ServeBlocks int // blocks of epochsPerBlock epochs per client
	// AllocOnLive reads the allocation metrics on the live stage instead
	// of the offline passes.
	AllocOnLive bool
	Ref         refNominal
}

var y1Capture = captureSpec{
	Kind: kindY1, Duration: 40 * time.Minute, SimPackets: 238000,
	Want: shape{Packets: 238000, Bytes: 27_412_000, C37Frames: 2323, ModbusFrames: 0},
}

var pmuMixCapture = captureSpec{
	Kind: kindPMUMix, Duration: 20 * time.Minute, SimPackets: 117000,
	Want: shape{Packets: 260920, Bytes: 28_592_000, C37Frames: 87484, ModbusFrames: 57580},
}

var workloads = []workload{
	{
		Name:    "offline_iec104",
		Capture: y1Capture, Passes: 28, LivePackets: 96000, ServeBlocks: 40,
		Ref: refNominal{Par: 0.0423, Ser: 0.0430},
	},
	{
		Name:    "offline_pmu_mix",
		Capture: pmuMixCapture, Protocols: "auto", Passes: 18, LivePackets: 96000, ServeBlocks: 40,
		Ref: refNominal{Par: 0.0399, Ser: 0.0403},
	},
	{
		Name:    "live_historian",
		Capture: y1Capture, Passes: 16, LivePackets: 160000, ServeBlocks: 40, AllocOnLive: true,
		Ref: refNominal{Par: 0.0423, Ser: 0.0430},
	},
	{
		Name:    "serve_fleet",
		Capture: y1Capture, Passes: 16, LivePackets: 96000, ServeBlocks: 80,
		Ref: refNominal{Par: 0.0423, Ser: 0.0430},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
