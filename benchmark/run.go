package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"uncharted/benchmark/refkernel"
	"uncharted/internal/core"
	"uncharted/internal/historian"
	"uncharted/internal/ids"
	"uncharted/internal/pcap"
	"uncharted/internal/stream"
)

// runCtx is everything one run shares across its stages.
type runCtx struct {
	w      workload
	seed   int64
	plan   plan
	dir    string // scratch directory inside the checkout, removed at exit
	rec    *spanRecorder
	detail map[string]any

	cap       *capture
	protocols []string
	warmPath  string // first warmupPackets of the capture, on disk
	baseline  *ids.Baseline
	fleet     *fleetInputs
	queryKeys []queryKey
	livePkts  []pcap.Packet

	refPar, refSer *refkernel.Kernel
	refMu          sync.Mutex
	refAll         []float64 // every reference sample of the run, seconds
}

// plan is the fixed work of one run after --seconds scaling.
type plan struct {
	Passes, LivePackets, ServeBlocks, SetupRepeats int
	// Probes of a traced run: ledger repetitions, interleaved rounds of
	// the variant passes, GETs per loopback connection.
	LedgerRepeats, VariantRounds, HTTPRequests int
}

// tracedShare is how much of the journey a traced run repeats: enough
// passes, snapshots and blocks for the per-layer tallies, leaving the
// rest of the run's time to the ledger and the variant passes.
const tracedShare = 0.3

// scaledPlan scales the workload's nominal work by seconds/runSeconds,
// keeping every stage large enough to yield its metrics.
func scaledPlan(w workload, seconds float64, traced bool) plan {
	f := seconds / runSeconds
	if traced {
		f *= tracedShare
		w.Passes, w.LivePackets, w.ServeBlocks = max(w.Passes, 20), max(w.LivePackets, 160000), max(w.ServeBlocks, 40)
	}
	scale := func(n, floor int) int { return max(floor, int(math.Round(float64(n)*f))) }
	return plan{
		Passes:        scale(w.Passes, 2),
		LivePackets:   scale(w.LivePackets, 2*liveRatePktS*int(liveSnapshot/time.Millisecond)/1000+8000),
		ServeBlocks:   scale(w.ServeBlocks, 2),
		SetupRepeats:  max(1, int(math.Round(setupRepeats*f))),
		LedgerRepeats: 2, VariantRounds: 2, HTTPRequests: 2000,
	}
}

// recFor is the recorder for pass (or block) i of a stage: traced runs
// record spans on even ones only, so the odd ones measure the same
// work untraced and the ratio is the tracing overhead.
func (rc *runCtx) recFor(i int) *spanRecorder {
	if i%2 != 0 {
		return nil
	}
	return rc.rec
}

// refRun executes one reference-kernel run and returns its CPU seconds.
func (rc *runCtx) refRun(k *refkernel.Kernel) float64 {
	sp := rc.rec.begin("bench.ref", -1, 0)
	_, cpu := k.Run()
	rc.rec.end(sp)
	s := cpu.Seconds()
	rc.refMu.Lock()
	rc.refAll = append(rc.refAll, s)
	rc.refMu.Unlock()
	return s
}

// refAlloc measures what one run of k allocates, with nothing else
// running.
func (rc *runCtx) refAlloc(k *refkernel.Kernel) memDelta {
	m0 := memNow()
	k.Run()
	return memSince(m0)
}

// prefixImage returns the classic-pcap image holding the first n
// records of data.
func prefixImage(data []byte, n int) []byte {
	off := 24
	for i := 0; i < n && off+16 <= len(data); i++ {
		off += 16 + int(binary.LittleEndian.Uint32(data[off+8:]))
	}
	return data[:min(off, len(data))]
}

// prepare generates the run's inputs from the seed and loads
// everything the stages share. None of this is the system's set-up;
// it is the benchmark synthesizing its workload.
func (rc *runCtx) prepare() error {
	var err error
	if rc.cap, err = generate(rc.w.Capture, rc.seed, filepath.Join(rc.dir, "capture.pcap")); err != nil {
		return err
	}
	if rc.protocols, err = stream.ParseProtocols(rc.w.Protocols); err != nil {
		return err
	}
	warm := min(warmupPackets, rc.cap.packets()/2)
	rc.warmPath = filepath.Join(rc.dir, "warmup.pcap")
	if err := os.WriteFile(rc.warmPath, prefixImage(rc.cap.data, warm), 0o644); err != nil {
		return err
	}
	base, ref, err := trainBaseline(rc.warmPath, rc.protocols)
	if err != nil {
		return fmt.Errorf("training on the warm-up capture: %w", err)
	}
	rc.baseline = base
	if rc.fleet, err = prepareFleetInputs(rc.dir, rc.warmPath, rc.cap.data, rc.protocols, ref); err != nil {
		return err
	}
	rc.queryKeys = queryKeySpace(ref)
	if len(rc.queryKeys) < 2 {
		return fmt.Errorf("warm-up capture yields %d query keys", len(rc.queryKeys))
	}
	if rc.livePkts, err = decodePackets(rc.cap.data, min(rc.plan.LivePackets, rc.cap.packets())); err != nil {
		return err
	}
	rc.refPar = refkernel.New(rc.cap.data, engineWorkers, 0)
	rc.refSer = refkernel.New(rc.cap.data, 1, 0)
	return nil
}

// setupOnce is what the system does, from fresh state, before each
// stage can take its first timed operation: build the graph and run
// one cold pass; open a historian, train the IDS baseline and bring a
// live engine to its first published snapshot; boot the fleet to Ready
// and serve one warm epoch per client.
func (rc *runCtx) setupOnce(i int) (time.Duration, error) {
	dir := filepath.Join(rc.dir, fmt.Sprintf("setup-%d", i))
	root := rc.rec.begin("setup", -1, i)
	defer rc.rec.end(root)
	t0 := time.Now()

	if _, err := graphPass(rc.rec, root, i, rc.cap.path, rc.w.Protocols); err != nil {
		return 0, fmt.Errorf("cold pass: %w", err)
	}

	sp := rc.rec.begin("setup.live", root, i)
	base, _, err := trainBaseline(rc.warmPath, rc.protocols)
	if err != nil {
		return 0, err
	}
	hist, err := historian.Open(filepath.Join(dir, "hist"), historian.Options{})
	if err != nil {
		return 0, err
	}
	cfg := liveConfig(rc.protocols, hist, func(int) core.FrameObserver { return ids.NewMonitor(base, nil) })
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	cfg.OnSnapshot = func(core.Partial, *stream.Profile, bool) { once.Do(cancel) }
	src := newPacedSource(rc.livePkts, liveRatePktS)
	src.start = time.Now()
	err = stream.New(cfg).Run(ctx, src)
	cancel()
	if cerr := hist.Close(); err == nil || errors.Is(err, context.Canceled) {
		err = cerr // cancelling at the first snapshot is how this step ends
	}
	rc.rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("live set-up: %w", err)
	}

	sp = rc.rec.begin("setup.serve", root, i)
	svc, err := bootFleet(rc.fleet, filepath.Join(dir, "fleet"))
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	clients := make([]*client, serveClients)
	for c := range clients {
		clients[c] = newClient(c, rc.seed, svc, rc.fleet, rc.queryKeys)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.epoch(nil, -1, 0)
		}(clients[c])
	}
	wg.Wait()
	d := time.Since(t0)
	svc.Drain()
	rc.rec.end(sp)
	for _, c := range clients {
		if c.failed > 0 {
			return 0, fmt.Errorf("warm epoch: %v", c.problems)
		}
	}
	return d, os.RemoveAll(dir)
}

// journey is the measured run: repeated set-up, then the three stages.
type journey struct {
	SetupWall, SetupRef []float64
	Offline             *offlineStage
	Live                *liveStage
	Serve               *serveStage
	RetainedHeap        uint64
	Problems            []string
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	return memNow().HeapAlloc
}

func (rc *runCtx) runJourney() (*journey, error) {
	j := &journey{}
	heap0 := heapAfterGC()

	for i := 0; i < rc.plan.SetupRepeats; i++ {
		r0 := rc.refRun(rc.refPar)
		d, err := rc.setupOnce(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		j.SetupWall = append(j.SetupWall, d.Seconds())
		j.SetupRef = append(j.SetupRef, (r0+rc.refRun(rc.refPar))/2)
	}

	var err error
	if j.Offline, err = runOfflineStage(rc, rc.plan.Passes); err != nil {
		return nil, err
	}
	if j.Live, err = runLiveStage(rc, rc.livePkts, filepath.Join(rc.dir, "live-hist")); err != nil {
		return nil, err
	}
	if j.Serve, err = runServeStage(rc, rc.plan.ServeBlocks, filepath.Join(rc.dir, "fleet")); err != nil {
		return nil, err
	}

	// What the system still holds when the work is done: the last
	// offline engine, the live engine and the running service, with
	// their final partials and profiles.
	final := j.Offline.Last.Final()
	if h := heapAfterGC(); h > heap0 {
		j.RetainedHeap = h - heap0
	}
	runtime.KeepAlive(final)
	runtime.KeepAlive(j.Offline.Last.Profile())
	runtime.KeepAlive(j.Live.Engine)
	runtime.KeepAlive(j.Serve.Service)
	j.Serve.Service.Drain()

	j.Problems = rc.check(j, final)
	return j, nil
}

// check compares every stage's output with an independent computation
// of what it must be.
func (rc *runCtx) check(j *journey, final core.Partial) []string {
	var bad []string
	note := func(stage string, diffs []string) {
		for _, d := range diffs {
			bad = append(bad, stage+": "+d)
		}
	}
	if err := rc.cap.checkShape(); err != nil {
		bad = append(bad, err.Error())
	}

	// Offline: the graph's 2-reader result must DeepEqual the hand-wired
	// 1-reader engine at the same shard count, and both must agree with
	// the serial analyzer on everything sharding leaves exact.
	wired, err := handWiredPartial(rc.cap.data, rc.protocols)
	if err != nil {
		bad = append(bad, "hand-wired engine: "+err.Error())
	} else if !reflect.DeepEqual(final, wired) {
		note("offline graph vs hand-wired engine", append(diffPartials(wired, final), "partials are not DeepEqual"))
	}
	serial, err := referencePartial(rc.cap.data, rc.protocols)
	if err != nil {
		bad = append(bad, "serial analyzer: "+err.Error())
	} else {
		note("offline vs serial analyzer", diffPartials(serial, final))
	}

	// Live: nothing shed, the final partial equals the serial analysis
	// of the same packets, and the historian holds every IEC 104 sample
	// the analyzers extracted.
	if j.Live.Dropped != 0 {
		bad = append(bad, fmt.Sprintf("live: %d packets dropped", j.Live.Dropped))
	}
	want, err := serialPartial(rc.livePkts, rc.protocols)
	if err != nil {
		bad = append(bad, "live reference: "+err.Error())
	} else {
		note("live vs serial analyzer", diffPartials(want, j.Live.Final))
		if stored, extracted := j.Live.HistSamples, iecSamples(want); stored != extracted {
			bad = append(bad, fmt.Sprintf("live: historian holds %d samples, analyzers extracted %d", stored, extracted))
		}
	}
	if len(j.Live.LagMS) == 0 {
		bad = append(bad, "live: no periodic snapshot was published")
	}

	for _, c := range j.Serve.Clients {
		bad = append(bad, c.problems...)
	}
	return bad
}

// failures counts what the contract calls failed operations: packets
// missing from a final partial or dropped, and requests that errored,
// returned the wrong thing or ran over the limit.
func (j *journey) failures() int {
	n := j.Offline.Failed + int(j.Live.Dropped) + abs(j.Live.Packets-j.Live.Final.Packets)
	for _, c := range j.Serve.Clients {
		n += c.failed
	}
	return n
}

// attempted is packets offered plus requests issued.
func (j *journey) attempted(capPackets int) int {
	n := len(j.Offline.Wall)*capPackets + j.Live.Packets
	for _, c := range j.Serve.Clients {
		n += c.requests
	}
	return n
}
