package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"uncharted/benchmark/refkernel"
	"uncharted/internal/core"
	"uncharted/internal/historian"
	"uncharted/internal/ids"
	"uncharted/internal/pcap"
	"uncharted/internal/protocol"
	"uncharted/internal/stream"
)

// decodePackets decodes the first n records of a capture image. The
// packets alias data, which outlives every engine fed from them.
func decodePackets(data []byte, n int) ([]pcap.Packet, error) {
	pr, err := pcap.NewAutoReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	pkts := make([]pcap.Packet, 0, n)
	for len(pkts) < n {
		// No scratch: every record keeps its own bytes.
		raw, ci, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		pkt, err := pcap.DecodePacket(pr.LinkType(), ci, raw)
		if err != nil {
			continue
		}
		pkts = append(pkts, pkt)
	}
	if len(pkts) < n {
		return nil, fmt.Errorf("capture holds %d decodable packets, need %d", len(pkts), n)
	}
	return pkts, nil
}

// pacedSource is the benchmark's open-loop generator: packet k is due
// at start + k/rate whatever the engine is doing, and is released at
// the first Next call at or after its due time (stream.ErrNotReady
// before that, like the repo's own paced sources). How late each
// release ran is recorded: it is the generator's own error bar.
type pacedSource struct {
	pkts     []pcap.Packet
	interval time.Duration
	i        int
	// start is when packet 0 is due; set before the engine runs, since
	// the snapshot path reads due times from another goroutine.
	start time.Time
	late  []time.Duration
}

func newPacedSource(pkts []pcap.Packet, ratePktS int) *pacedSource {
	return &pacedSource{pkts: pkts, interval: time.Second / time.Duration(ratePktS), late: make([]time.Duration, 0, len(pkts))}
}

// due is when packet k is owed to the engine.
func (s *pacedSource) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.interval) }

func (s *pacedSource) Next() (pcap.Packet, error) {
	if s.i >= len(s.pkts) {
		return pcap.Packet{}, io.EOF
	}
	d := time.Since(s.due(s.i))
	if d < 0 {
		return pcap.Packet{}, stream.ErrNotReady
	}
	s.late = append(s.late, d)
	p := s.pkts[s.i]
	s.i++
	return p, nil
}

func (s *pacedSource) Close() error { return nil }

// timedObserver wraps a shard's observer to sum the time spent in it —
// only used on traced runs, one instance per shard (no locking).
type timedObserver struct {
	inner  core.FrameObserver
	frames int
	total  time.Duration
}

func (o *timedObserver) ObserveFrame(ev core.FrameEvent) {
	t0 := time.Now()
	o.inner.ObserveFrame(ev)
	o.total += time.Since(t0)
	o.frames++
}

// liveStage is one open-loop feed into a live engine.
type liveStage struct {
	Packets   int
	LagMS     []float64 // per periodic snapshot: publish time − due time of the newest packet in it
	GapMS     []float64 // between consecutive periodic publishes
	LateMS    []float64 // generator lateness per packet
	Ref       []float64 // reference CPU seconds: two runs before the feed, two after
	Wall, CPU time.Duration
	Mem       memDelta
	Dropped   int64
	Final     core.Partial
	Engine    *stream.Engine
	Alerts    int

	HistSamples int64 // samples in the store's catalog after Close
	HistBytes   int64 // bytes on disk after Close
	Observers   []*timedObserver
}

// liveConfig is the engine a live tap runs.
func liveConfig(protocols []string, hist *historian.Store, observer func(shard int) core.FrameObserver) stream.Config {
	return stream.Config{
		Workers: engineWorkers, SnapshotEvery: liveSnapshot, PollInterval: livePoll, QueueDepth: liveQueueDepth, Policy: stream.DropNewest,
		ClusterK: clusterK, ClusterSeed: clusterSeed, Protocols: protocols,
		Historian: hist, MaxPointSamples: livePointCap, Observer: observer,
	}
}

// runLiveStage feeds pkts at liveRatePktS into a fresh engine writing
// a fresh historian under dir.
func runLiveStage(rc *runCtx, pkts []pcap.Packet, dir string) (*liveStage, error) {
	st := &liveStage{Packets: len(pkts)}
	root := rc.rec.begin("stage.live", -1, 0)
	defer rc.rec.end(root)

	hist, err := historian.Open(dir, historian.Options{})
	if err != nil {
		return nil, err
	}
	src := newPacedSource(pkts, liveRatePktS)
	var monitors []*ids.Monitor
	cfg := liveConfig(rc.protocols, hist, func(int) core.FrameObserver {
		m := ids.NewMonitor(rc.baseline, nil)
		monitors = append(monitors, m) // called serially from stream.New
		if rc.rec == nil {
			return m
		}
		o := &timedObserver{inner: m}
		st.Observers = append(st.Observers, o)
		return o
	})
	var lastPublish time.Time
	cfg.OnSnapshot = func(p core.Partial, _ *stream.Profile, final bool) {
		now := time.Now()
		if final || p.Packets == 0 {
			return
		}
		st.LagMS = append(st.LagMS, ms(now.Sub(src.due(p.Packets-1))))
		if !lastPublish.IsZero() {
			st.GapMS = append(st.GapMS, ms(now.Sub(lastPublish)))
		}
		lastPublish = now
		rc.rec.add("stream.publish", now, 0, root, len(st.LagMS))
	}
	eng := stream.New(cfg)

	// A 16k pkt/s tap keeps a quarter of one core busy, and on such a
	// lightly loaded, chatty set of goroutines the kernel decides run by
	// run whether the shards, the reader and the snapshotter share a
	// vCPU: lag was 12 ms or 20 ms by that coin. One P takes the coin
	// away — the stage measures the serial cost of a publish, which is
	// what a code change moves and what the reference CPU can normalise.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// The drift sensor brackets the feed (two runs before, two after)
	// rather than running beside it: a 43 ms CPU burst every second
	// doubled the lag of every snapshot it collided with.
	st.Ref = append(st.Ref, rc.refRun(rc.refSer), rc.refRun(rc.refSer))
	src.start = time.Now()
	m0 := memNow()
	c0, t0 := refkernel.ProcessCPU(), time.Now()
	sp := rc.rec.begin("stream.run", root, 0)
	runErr := eng.Run(context.Background(), src)
	rc.rec.end(sp)
	st.Wall, st.CPU = time.Since(t0), refkernel.ProcessCPU()-c0
	st.Mem = memSince(m0)
	st.Ref = append(st.Ref, rc.refRun(rc.refSer), rc.refRun(rc.refSer))
	sp = rc.rec.begin("historian.close", root, 0)
	closeErr := hist.Close()
	rc.rec.end(sp)
	if runErr != nil {
		return nil, fmt.Errorf("live engine: %w", runErr)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("historian close: %w", closeErr)
	}

	st.Engine, st.Final = eng, eng.Final()
	st.Dropped = eng.Profile().DroppedPackets
	for _, m := range monitors {
		st.Alerts += m.Alerts()
	}
	st.LateMS = make([]float64, len(src.late))
	for i, d := range src.late {
		st.LateMS[i] = ms(d)
	}
	for _, pi := range hist.Catalog() {
		st.HistSamples += pi.Samples
	}
	if st.HistBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	return st, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// serialPartial is the reference for a packet prefix: one analyzer fed
// the same decoded packets in order.
func serialPartial(pkts []pcap.Packet, protocols []string) (core.Partial, error) {
	a, err := newAnalyzer(protocols)
	if err != nil {
		return core.Partial{}, err
	}
	for i := range pkts {
		a.FeedPacket(pkts[i])
	}
	return core.MergePartials([]core.Partial{a.Partial()}), nil
}

// iecSamples counts the IEC 104 samples behind a partial's digests —
// what a historian.Recorder must have appended.
func iecSamples(p core.Partial) int64 {
	var n int64
	for _, d := range p.Physical {
		if d.Type.Proto() == protocol.IEC104 {
			n += int64(d.Count)
		}
	}
	return n
}

// trainBaseline trains the IDS whitelist on a warm-up capture, the way
// an operator arms monitors from a known-good recording.
func trainBaseline(path string, protocols []string) (*ids.Baseline, *core.Analyzer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	a, err := newAnalyzer(protocols)
	if err != nil {
		return nil, nil, err
	}
	if err := a.ReadPCAP(f); err != nil {
		return nil, nil, err
	}
	base, err := ids.Train(a)
	return base, a, err
}
