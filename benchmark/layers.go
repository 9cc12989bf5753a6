package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/ids"
	"uncharted/internal/iec104"
	"uncharted/internal/obs"
	"uncharted/internal/obs/trace"
	"uncharted/internal/pcap"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
	"uncharted/internal/stream"
	"uncharted/internal/tcpflow"
)

// A traced run reports the per-layer metrics. Three sources feed them:
// the spans and tallies of the (shortened) journey, a serial ledger
// pass in which the benchmark itself drives pcap → tcpflow → dialect →
// core → stream.BuildProfile one stage at a time, and paired variant
// passes (one knob changed against a base engine). Everything is
// measured from outside, through public functions; times are rescaled
// by the run-level drift factor, counts are exact.

const (
	historianSyncs = 20
	queryProbes    = 400
	driftRepeats   = 5
	httpConns      = 2
)

// layerSet collects metrics by name.
type layerSet map[string]metric

func (l layerSet) put(name string, v float64, unit string) { l[name] = metric{v, unit} }

// per divides, returning 0 when the layer did no work on this workload.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics runs the probes and assembles every per-layer metric.
func (rc *runCtx) layerMetrics(j *journey) (map[string]metric, error) {
	l := layerSet{}
	refBefore := rc.refRun(rc.refSer)
	led, err := rc.ledger()
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	vr, err := rc.variants()
	if err != nil {
		return nil, fmt.Errorf("variant passes: %w", err)
	}
	hp, err := rc.historianProbe()
	if err != nil {
		return nil, fmt.Errorf("historian probe: %w", err)
	}
	dp, err := rc.driftProbe(j.Offline.Last.Final())
	if err != nil {
		return nil, fmt.Errorf("drift probe: %w", err)
	}
	rtt, err := rc.httpProbe()
	if err != nil {
		return nil, fmt.Errorf("loopback probe: %w", err)
	}
	refAfter := rc.refRun(rc.refSer)

	// One factor for the whole traced run: every reference sample it
	// took, against the nominal of the matching kernel.
	f := driftFactor(rc.refAll, (rc.w.Ref.Par+rc.w.Ref.Ser)/2)
	rc.detail["reference"] = map[string]any{"factor": f, "samples": len(rc.refAll), "probe_bracket_cpu_s": []float64{refBefore, refAfter}}
	ns := func(d time.Duration, n int) float64 { return per(float64(d.Nanoseconds())*f, float64(n)) }
	msf := func(d time.Duration) float64 { return ms(d) * f }
	capMB := rc.cap.mb()

	// pcap, tcpflow, dialect codecs, protocol, core, reports: the ledger.
	l.put("pcap.plan_ms", msf(led.Plan), "ms")
	l.put("pcap.read_ns_per_pkt", ns(led.Read, led.Records), "ns")
	l.put("pcap.decode_ns_per_pkt", ns(led.Decode, led.Records), "ns")
	l.put("pcap.decode_fail_share", per(float64(led.DecodeFails), float64(led.Records)), "share")
	l.put("tcpflow.feed_ns_per_pkt", ns(led.Flow, led.Packets), "ns")
	l.put("tcpflow.reassembled_mb", float64(led.Reassembled)/1e6, "MB")
	l.put("tcpflow.out_of_order_share", per(float64(led.OutOfOrder), float64(led.Chunks)), "share")
	for _, d := range []struct {
		name string
		id   protocol.ID
		verb string
	}{{"iec104", protocol.IEC104, "parse"}, {"c37118", protocol.C37118, "decode"}, {"modbus", protocol.Modbus, "decode"}} {
		ds := led.Dialect[d.id]
		l.put(d.name+"."+d.verb+"_ns_per_frame", ns(ds.Time, ds.Frames), "ns")
		l.put(d.name+".allocs_per_frame", per(float64(ds.Mallocs), float64(ds.Frames)), "count")
	}
	iec := led.Dialect[protocol.IEC104]
	l.put("iec104.parse_fail_share", per(float64(iec.Errors), float64(iec.Frames)), "share")
	l.put("protocol.detect_ns_per_flow", ns(led.Detect, led.DetectFlows), "ns")
	var decoded, failed int
	for id, ds := range led.Dialect {
		if id != protocol.IEC104 {
			decoded += ds.Frames - ds.Errors
			failed += ds.Errors
		}
	}
	l.put("protocol.decoded_frame_share", per(float64(decoded), float64(decoded+failed)), "share")
	l.put("core.feed_ns_per_pkt", ns(led.Feed, led.Packets), "ns")
	l.put("core.self_ns_per_pkt", ns(led.FeedSelf, led.Packets), "ns")
	l.put("core.allocs_per_kpkt", per(float64(led.FeedMallocs), float64(led.Packets))*1000, "1/kpkt")
	l.put("core.partial_ms", msf(led.Partial), "ms")
	l.put("core.merge_ms", msf(led.Merge), "ms")
	l.put("core.state_mb", float64(led.StateBytes)/1e6, "MB")
	l.put("markov.report_ms", msf(led.Markov), "ms")
	l.put("cluster.report_ms", msf(led.Cluster), "ms")
	l.put("stream.build_profile_ms", msf(led.BuildProfile), "ms")
	l.put("stream.profile_json_kb", float64(led.ProfileJSON)/1e3, "kB")
	l.put("physical.samples", float64(led.Samples), "count")
	l.put("physical.series", float64(led.Series), "count")

	// Engine variants.
	base := vr.time("base")
	l.put("stream.serial_mb_s", per(capMB, vr.time("serial").Seconds()*f), "MB/s")
	l.put("stream.scaling_ratio", per(vr.time("serial").Seconds(), base.Seconds()), "ratio")
	l.put("stream.overhead_ratio", per(vr.time("serial").Seconds(), led.Serial.Seconds()), "ratio")
	l.put("stream.gc_cycles_per_pass", per(float64(j.Offline.Mem.GCs), float64(len(j.Offline.Wall))), "count")
	l.put("stream.peak_rss_mb", peakRSSMB(), "MB")
	l.put("pipeline.graph_overhead_ratio", per(vr.time("graph").Seconds(), base.Seconds()), "ratio")
	l.put("pipeline.graph_alloc_ratio", per(vr.alloc("graph"), vr.alloc("base")), "ratio")
	l.put("obs.metrics_cost_ratio", per(vr.time("registry").Seconds(), base.Seconds()), "ratio")
	l.put("obs.trace_cost_ratio", per(vr.time("trace").Seconds(), base.Seconds()), "ratio")
	l.put("historian.attach_cost_ratio", per(vr.time("historian").Seconds(), base.Seconds()), "ratio")
	l.put("ids.attach_cost_ratio", per(vr.time("ids").Seconds(), base.Seconds()), "ratio")

	// The live feed.
	live := j.Live
	lagTail, lateTail := tailOf(live.LagMS), tailOf(live.LateMS)
	rc.detail["publish_lag_ms_tail"], rc.detail["generator_late_ms_tail"] = lagTail, lateTail
	l.put("stream.publish_lag_ms_p90", lagTail.Value*f, "ms")
	l.put("stream.snapshot_gap_ms_p50", median(live.GapMS), "ms")
	l.put("stream.dropped_pkts", float64(live.Dropped), "count")
	l.put("stream.source_late_ms_p99", quantile(live.LateMS, 0.99), "ms")
	l.put("stream.live_cpu_cores", per(live.CPU.Seconds(), live.Wall.Seconds()), "cores")
	var obsFrames int
	var obsTime time.Duration
	for _, o := range live.Observers {
		obsFrames += o.frames
		obsTime += o.total
	}
	l.put("ids.observe_ns_per_frame", ns(obsTime, obsFrames), "ns")
	l.put("historian.append_ns_per_sample", ns(hp.Append, hp.Samples), "ns")
	l.put("historian.sync_ms_p50", median(hp.SyncMS)*f, "ms")
	l.put("historian.bytes_per_sample", per(float64(live.HistBytes), float64(live.HistSamples)), "B/sample")
	l.put("historian.query_ms_p50", median(hp.QueryMS)*f, "ms")
	l.put("historian.query_ms_p90", quantile(hp.QueryMS, 0.9)*f, "ms")

	// The fleet.
	l.put("drift.encode_ms", msf(dp.Encode), "ms")
	l.put("drift.decode_ms", msf(dp.Decode), "ms")
	l.put("drift.compare_ms", msf(dp.Compare), "ms")
	l.put("drift.profile_kb", float64(dp.Bytes)/1e3, "kB")
	sum := j.Serve.summary()
	missP50 := func(eps ...int) float64 {
		var all []float64
		for _, ep := range eps {
			all = append(all, sum.MissMS[ep]...)
		}
		if len(all) == 0 {
			return 0
		}
		return median(all) * f
	}
	l.put("service.hit_us_p50", median(sum.HitUS)*f, "us")
	l.put("service.cache_hit_ratio", per(float64(sum.Hits), float64(sum.Hits+sum.Misses)), "ratio")
	l.put("service.not_modified_share", per(float64(sum.NotModified), float64(sum.Requests)), "share")
	serveAlloc := j.Serve.Mem.Bytes
	serveAlloc -= min(serveAlloc, uint64(len(j.Serve.Ref)-1)*rc.refAlloc(rc.refSer).Bytes)
	l.put("service.alloc_kb_per_req", per(float64(serveAlloc)/1e3, float64(sum.Requests)), "kB")
	l.put("service.fleet_miss_ms_p50", missP50(epProbeFleet, epLiveFleet), "ms")
	l.put("service.query_miss_ms_p50", missP50(epQuery), "ms")
	l.put("service.profile_miss_ms_p50", missP50(epProfileJSON, epProfileText, epProbeProfile), "ms")
	l.put("service.partial_post_ms_p50", median(sum.PostMS)*f, "ms")
	l.put("service.serve_ms_p99", quantile(sum.AllMS, 0.99)*f, "ms")
	l.put("service.http_rtt_ms_p50", median(rtt)*f, "ms")
	rc.detail["serve"] = map[string]any{"requests": sum.Requests, "hits": sum.Hits, "misses": sum.Misses, "over_limit": sum.Slow}

	// Can this run be trusted?
	l.put("bench.ledger_coverage", per(led.Covered.Seconds(), led.Serial.Seconds()), "ratio")
	l.put("bench.trace_overhead_ratio", j.traceOverhead(), "ratio")
	l.put("bench.ref_cpu_ms_p50", median(rc.refAll)*1000, "ms")
	l.put("bench.drift_factor", f, "ratio")
	l.put("bench.ref_spread", per(quantile(rc.refAll, 0.9), quantile(rc.refAll, 0.1)), "ratio")
	return l, nil
}

// traceOverhead is traced ÷ untraced time of the same work: a traced
// journey records spans on even offline passes and serve blocks only,
// and the larger of the two stages' ratios is reported. With a handful
// of each the fastest of either kind is compared: minima are what a
// few samples on a shared machine still agree on.
func (j *journey) traceOverhead() float64 {
	ratio := func(xs []float64) float64 {
		var on, off []float64
		for i, x := range xs {
			if i%2 == 0 {
				on = append(on, x)
			} else {
				off = append(off, x)
			}
		}
		if len(off) == 0 {
			return 1
		}
		return slices.Min(on) / slices.Min(off)
	}
	return max(ratio(j.Offline.Wall), ratio(j.Serve.BlockWall))
}

// peakRSSMB reads the process's high-water resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// dialectLedger is one codec's share of the ledger pass.
type dialectLedger struct {
	Time    time.Duration
	Frames  int
	Errors  int
	Mallocs uint64
}

// ledgerResult is the serial stage-by-stage account of one capture.
type ledgerResult struct {
	Records, Packets, DecodeFails int
	Plan, Read, Decode, Flow      time.Duration
	Chunks, OutOfOrder            int
	Reassembled                   int64
	Dialect                       map[protocol.ID]dialectLedger
	Detect                        time.Duration
	DetectFlows                   int
	Feed, FeedSelf                time.Duration
	FeedMallocs                   uint64
	Partial, Merge                time.Duration
	Markov, Cluster, BuildProfile time.Duration
	ProfileJSON                   int
	StateBytes                    uint64
	Samples, Series               int
	// Serial is the wall time of the undivided serial pass (ReadPCAP,
	// Partial, BuildProfile); Covered is the layer self time the
	// stage-wise account finds for the same work.
	Serial, Covered time.Duration
}

// chunk is one reassembled payload delivery, copied out of tcpflow.
type chunk struct {
	dir        int // index into the ledger's directions
	data       []byte
	retransmit bool
}

// direction is one flow direction's decode state in the ledger.
type direction struct {
	proto       protocol.ID
	enabled     bool
	srcKey      string
	fromStation bool
	sess        protocol.Session
	buf         []byte
}

type dirKey struct{ src, dst netip.AddrPort }

// collector is a tcpflow.Consumer that keeps what the tracker
// delivers, classified per direction the way core.Analyzer routes it.
type collector struct {
	protocols map[protocol.ID]bool
	detect    bool
	index     map[dirKey]int
	dirs      []*direction
	firsts    [][]byte // first payload of every non-IEC-104 direction
	chunks    []chunk
	bytes     int64
	ooo       int
}

func (c *collector) OnPayload(sp tcpflow.StreamPayload) {
	if sp.Retransmit || len(sp.Data) != len(sp.Raw) {
		c.ooo++
	}
	c.bytes += int64(len(sp.Data))
	k := dirKey{sp.Src, sp.Dst}
	di, ok := c.index[k]
	if !ok {
		di = len(c.dirs)
		c.index[k] = di
		c.dirs = append(c.dirs, c.classify(sp))
	}
	c.chunks = append(c.chunks, chunk{dir: di, data: append([]byte(nil), sp.Data...), retransmit: sp.Retransmit})
}

// classify mirrors the analyzer's routing: the IEC 104 port goes to the
// specialised path; other streams go to an enabled dialect by
// registered port, else (auto mode) by content sniff; the rest is
// tallied and skipped.
func (c *collector) classify(sp tcpflow.StreamPayload) *direction {
	d := &direction{srcKey: sp.Src.Addr().String()}
	if sp.Src.Port() == core.IEC104Port || sp.Dst.Port() == core.IEC104Port {
		d.proto, d.enabled = protocol.IEC104, true
		return d
	}
	c.firsts = append(c.firsts, append([]byte(nil), sp.Data...))
	if rev, ok := c.index[dirKey{sp.Dst, sp.Src}]; ok {
		r := c.dirs[rev]
		d.proto, d.enabled, d.sess, d.fromStation = r.proto, r.enabled, r.sess, !r.fromStation
		return d
	}
	dial := protocol.ByPort(sp.Dst.Port())
	if dial == nil {
		dial = protocol.ByPort(sp.Src.Port())
	}
	if dial == nil && c.detect {
		dial = protocol.Detect(sp.Data)
	}
	if dial == nil || !c.protocols[dial.ID()] {
		return d
	}
	d.proto, d.enabled, d.sess = dial.ID(), true, dial.NewSession()
	fromDialer := sp.Dst.Port() == dial.Port() || sp.Src.Port() != dial.Port()
	d.fromStation = fromDialer == dial.StationInitiates()
	return d
}

// enabledProtocols resolves the workload's protocol list the way
// core.Analyzer.EnableProtocolNames does.
func enabledProtocols(names []string) (set map[protocol.ID]bool, detect bool) {
	set = map[protocol.ID]bool{}
	for _, n := range names {
		if n == "auto" {
			detect = true
			for _, d := range protocol.All() {
				set[d.ID()] = true
			}
			continue
		}
		if id, ok := protocol.ParseID(n); ok {
			set[id] = true
		}
	}
	return set, detect
}

// ledger drives the layers one at a time over the workload's capture,
// plan.LedgerRepeats times, and keeps each stage's fastest time (the serial
// pass has no concurrency, so the minimum is the least disturbed).
func (rc *runCtx) ledger() (*ledgerResult, error) {
	var best *ledgerResult
	for rep := 0; rep < rc.plan.LedgerRepeats; rep++ {
		r, err := rc.ledgerOnce(rep)
		if err != nil {
			return nil, err
		}
		if best == nil {
			best = r
			continue
		}
		keep := func(dst *time.Duration, v time.Duration) { *dst = min(*dst, v) }
		keep(&best.Plan, r.Plan)
		keep(&best.Read, r.Read)
		keep(&best.Decode, r.Decode)
		keep(&best.Flow, r.Flow)
		keep(&best.Detect, r.Detect)
		keep(&best.Feed, r.Feed)
		keep(&best.FeedSelf, r.FeedSelf)
		keep(&best.Partial, r.Partial)
		keep(&best.Merge, r.Merge)
		keep(&best.Markov, r.Markov)
		keep(&best.Cluster, r.Cluster)
		keep(&best.BuildProfile, r.BuildProfile)
		keep(&best.Serial, r.Serial)
		keep(&best.Covered, r.Covered)
		for id, ds := range r.Dialect {
			b := best.Dialect[id]
			b.Time = min(b.Time, ds.Time)
			best.Dialect[id] = b
		}
	}
	return best, nil
}

func (rc *runCtx) ledgerOnce(rep int) (*ledgerResult, error) {
	data := rc.cap.data
	r := &ledgerResult{Dialect: map[protocol.ID]dialectLedger{}}
	rec := rc.rec
	first := rec.count() // this repetition's first span
	root := rec.begin("ledger.pass", -1, rep)
	timed := func(name string, parent int, fn func()) time.Duration {
		sp := rec.begin(name, parent, rep)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		rec.end(sp)
		return d
	}

	// pcap: plan, read, decode.
	var planErr error
	r.Plan = timed("pcap.plan", root, func() {
		_, planErr = pcap.PlanSegments(bytes.NewReader(data), int64(len(data)), engineReaders)
	})
	if planErr != nil {
		return nil, planErr
	}
	pr, err := pcap.NewAutoReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var readErr error
	r.Read = timed("pcap.read", root, func() {
		var scratch []byte
		for {
			raw, _, err := pr.ReadPacketInto(scratch)
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
			scratch = raw
			r.Records++
		}
	})
	if readErr != nil {
		return nil, readErr
	}
	// Untimed: keep every record's bytes for the stages below.
	pr, err = pcap.NewAutoReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raws := make([][]byte, 0, r.Records)
	infos := make([]pcap.CaptureInfo, 0, r.Records)
	for {
		raw, ci, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		raws, infos = append(raws, raw), append(infos, ci)
	}
	pkts := make([]pcap.Packet, 0, len(raws))
	link := pr.LinkType()
	r.Decode = timed("pcap.decode", root, func() {
		for i := range raws {
			pkt, err := pcap.DecodePacket(link, infos[i], raws[i])
			if err != nil {
				r.DecodeFails++
				continue
			}
			pkts = append(pkts, pkt)
		}
	})
	r.Packets = len(pkts)

	// tcpflow alone: a consumer that only counts, then (untimed) one
	// that keeps the reassembled chunks for the codecs.
	var counted countingConsumer
	tr := tcpflow.NewTracker(&counted)
	flowStart := time.Now()
	for i := range pkts {
		tr.Feed(pkts[i])
	}
	r.Flow = time.Since(flowStart)
	set, detect := enabledProtocols(rc.protocols)
	col := &collector{protocols: set, detect: detect, index: map[dirKey]int{}}
	tr = tcpflow.NewTracker(col)
	for i := range pkts {
		tr.Feed(pkts[i])
	}
	r.Chunks, r.OutOfOrder, r.Reassembled = len(col.chunks), col.ooo, col.bytes

	// Detection cost per flow direction, looped for a stable figure.
	const detectLoops = 200
	detected := 0
	t0 := time.Now()
	for n := 0; n < detectLoops; n++ {
		for _, first := range col.firsts {
			if protocol.Detect(first) != nil {
				detected++
			}
		}
	}
	r.Detect = time.Since(t0) / detectLoops
	r.DetectFlows = len(col.firsts)
	rc.detail["detected_flow_directions"] = detected / detectLoops

	// Codecs: one pass over the chunks per dialect, each timed whole.
	var dialectTotal time.Duration
	for _, id := range []protocol.ID{protocol.IEC104, protocol.C37118, protocol.Modbus} {
		ds := decodeChunks(col, id)
		r.Dialect[id] = ds
		dialectTotal += ds.Time
	}

	// core: the whole analyzer fed the same packets. Its self time is
	// what remains after tcpflow and the codecs it calls.
	var h0 uint64
	if rep == 0 {
		h0 = heapAfterGC()
	}
	an, err := newAnalyzer(rc.protocols)
	if err != nil {
		return nil, err
	}
	m0 := memNow()
	feedSpan := rec.begin("core.feed", root, rep)
	feedStart := time.Now()
	for i := range pkts {
		an.FeedPacket(pkts[i])
	}
	r.Feed = time.Since(feedStart)
	rec.end(feedSpan)
	r.FeedMallocs = memSince(m0).Mallocs
	// tcpflow and the codecs ran on their own above; booked as children
	// of the feed they are part of, they leave core's self time.
	rec.add("tcpflow.feed", feedStart, r.Flow, feedSpan, rep)
	rec.add("dialect.decode", feedStart.Add(r.Flow), dialectTotal, feedSpan, rep)
	if rep == 0 {
		if h1 := heapAfterGC(); h1 > h0 {
			r.StateBytes = h1 - h0
		}
		runtime.KeepAlive(an)
	}

	var p core.Partial
	r.Partial = timed("core.partial", root, func() { p = an.Partial() })
	var prof *stream.Profile
	r.BuildProfile = timed("stream.build_profile", root, func() { prof = stream.BuildProfile(p, 1, clusterK, clusterSeed) })
	rec.end(root)
	// Layer self time: each span minus what its children cover. The
	// account of the pass is the sum over the pass's own descendants.
	for name, d := range selfTimes(rec.since(first)) {
		switch name {
		case "core.feed":
			r.FeedSelf = d
			fallthrough
		case "pcap.read", "pcap.decode", "tcpflow.feed", "dialect.decode", "core.partial", "stream.build_profile":
			r.Covered += d
		}
	}
	r.Markov = timed("markov.report", -1, func() { p.MarkovReport() })
	var clusterErr error
	r.Cluster = timed("cluster.report", -1, func() { _, clusterErr = p.ClusterReport(clusterK, clusterSeed) })
	if clusterErr != nil {
		return nil, clusterErr
	}
	var js bytes.Buffer
	if err := prof.WriteJSON(&js); err != nil {
		return nil, err
	}
	r.ProfileJSON = js.Len()
	r.Series = len(p.Physical)
	for _, d := range p.Physical {
		r.Samples += d.Count
	}

	// Merge cost: the same packets through two IP-pair shards.
	shards := [engineWorkers]*core.Analyzer{}
	for i := range shards {
		if shards[i], err = newAnalyzer(rc.protocols); err != nil {
			return nil, err
		}
	}
	for i := range pkts {
		shards[pairShard(pkts[i], engineWorkers)].FeedPacket(pkts[i])
	}
	parts := []core.Partial{shards[0].Partial(), shards[1].Partial()}
	r.Merge = timed("core.merge", -1, func() { core.MergePartials(parts) })

	// The undivided serial pass the account is held against.
	whole, err := newAnalyzer(rc.protocols)
	if err != nil {
		return nil, err
	}
	var serialErr error
	r.Serial = timed("ledger.serial", -1, func() {
		if serialErr = whole.ReadPCAP(bytes.NewReader(data)); serialErr != nil {
			return
		}
		stream.BuildProfile(whole.Partial(), 1, clusterK, clusterSeed)
	})
	if serialErr != nil {
		return nil, serialErr
	}
	return r, nil
}

// countingConsumer is the cheapest possible tcpflow.Consumer.
type countingConsumer struct{ bytes int64 }

func (c *countingConsumer) OnPayload(sp tcpflow.StreamPayload) { c.bytes += int64(len(sp.Data)) }

// decodeChunks runs one dialect's codec over its share of the
// reassembled stream, framing exactly as core.Analyzer does: pending
// partial frames are carried per direction, retransmissions skipped.
func decodeChunks(col *collector, id protocol.ID) dialectLedger {
	var ds dialectLedger
	for _, d := range col.dirs {
		d.buf = d.buf[:0]
	}
	parser := iec104.NewTolerantParser()
	var apdu iec104.APDU
	var asdu iec104.ASDU
	m0 := memNow()
	t0 := time.Now()
	for i := range col.chunks {
		ch := &col.chunks[i]
		d := col.dirs[ch.dir]
		if d.proto != id || !d.enabled || ch.retransmit || len(ch.data) == 0 {
			continue
		}
		buf := ch.data
		if len(d.buf) > 0 {
			d.buf = append(d.buf, ch.data...)
			buf = d.buf
		}
		if id == protocol.IEC104 {
			for {
				frame, rest, _, ok := iec104.NextFrame(buf)
				if !ok {
					d.buf = append(d.buf[:0], rest...)
					break
				}
				buf = rest
				ds.Frames++
				if _, err := parser.ParseFrameInto(d.srcKey, frame, &apdu, &asdu); err != nil {
					ds.Errors++
				}
			}
			continue
		}
		for {
			ev, rest, _, ok := d.sess.Next(buf, d.fromStation)
			if !ok {
				d.buf = append(d.buf[:0], rest...)
				break
			}
			buf = rest
			ds.Frames++
			if ev.Err != nil {
				ds.Errors++
			}
		}
	}
	ds.Time = time.Since(t0)
	ds.Mallocs = memSince(m0).Mallocs
	return ds
}

// variantResult holds the paired variant passes.
type variantResult struct {
	times  map[string][]float64
	allocs map[string][]float64
}

func (v *variantResult) time(name string) time.Duration {
	return time.Duration(median(v.times[name]) * float64(time.Second))
}
func (v *variantResult) alloc(name string) float64 { return median(v.allocs[name]) }

// variants runs the base engine (hand-wired, 2 shards, 2 readers) and
// six one-knob departures from it in interleaved rounds, so each ratio
// compares passes a fraction of a second apart.
func (rc *runCtx) variants() (*variantResult, error) {
	v := &variantResult{times: map[string][]float64{}, allocs: map[string][]float64{}}
	histDir := filepath.Join(rc.dir, "variant-hist")
	engine := func(mod func(*stream.Config)) func() error {
		return func() error {
			cfg := stream.Config{Workers: engineWorkers, Readers: engineReaders, ClusterK: clusterK, ClusterSeed: clusterSeed, Protocols: rc.protocols}
			var cleanup func() error
			if mod != nil {
				mod(&cfg)
			}
			if cfg.Historian != nil {
				cleanup = cfg.Historian.Close
			}
			src, err := stream.NewFileSource(rc.cap.path)
			if err != nil {
				return err
			}
			defer src.Close()
			if err := stream.New(cfg).Run(context.Background(), src); err != nil {
				return err
			}
			if cleanup != nil {
				return cleanup()
			}
			return nil
		}
	}
	var histErr error
	runs := []struct {
		name string
		run  func() error
	}{
		{"base", engine(nil)},
		{"serial", engine(func(c *stream.Config) { c.Workers, c.Readers = 1, 1 })},
		{"registry", engine(func(c *stream.Config) { c.Registry = obs.NewRegistry() })},
		{"trace", engine(func(c *stream.Config) { c.Trace = trace.New(trace.Config{SampleEvery: 64}) })},
		{"historian", engine(func(c *stream.Config) {
			if histErr = os.RemoveAll(histDir); histErr == nil {
				c.Historian, histErr = historian.Open(histDir, historian.Options{})
			}
		})},
		{"ids", engine(func(c *stream.Config) {
			c.Observer = func(int) core.FrameObserver { return ids.NewMonitor(rc.baseline, nil) }
		})},
		{"graph", func() error {
			_, err := graphPass(nil, -1, 0, rc.cap.path, rc.w.Protocols)
			return err
		}},
	}
	// A throwaway pass first: the ledger before this was single-threaded,
	// and the first parallel pass after a serial phase pays for waking
	// the second core. Odd rounds run the list backwards so no variant
	// always follows the same neighbour.
	if err := runs[0].run(); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	for round := 0; round < rc.plan.VariantRounds; round++ {
		for i := range runs {
			r := runs[i]
			if round%2 == 1 {
				r = runs[len(runs)-1-i]
			}
			sp := rc.rec.begin("variant."+r.name, -1, round)
			m0 := memNow()
			t0 := time.Now()
			err := r.run()
			d := time.Since(t0)
			mem := memSince(m0)
			rc.rec.end(sp)
			if err == nil {
				err = histErr
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
			v.times[r.name] = append(v.times[r.name], d.Seconds())
			v.allocs[r.name] = append(v.allocs[r.name], float64(mem.Bytes))
		}
	}
	return v, nil
}

// historianResult is the store driven directly.
type historianResult struct {
	Append  time.Duration
	Samples int
	SyncMS  []float64
	QueryMS []float64
}

// historianProbe appends the live stage's own samples to a fresh store
// in snapshot-sized batches (timing Append and each Sync), then reads
// points back through Query.
func (rc *runCtx) historianProbe() (*historianResult, error) {
	ref, err := newAnalyzer(rc.protocols)
	if err != nil {
		return nil, err
	}
	for i := range rc.livePkts {
		ref.FeedPacket(rc.livePkts[i])
	}
	type sample struct {
		key historian.PointKey
		typ physical.PointType
		cmd bool
		s   physical.Sample
	}
	var samples []sample
	var keys []historian.PointKey
	for _, s := range ref.Physical().All() {
		if s.Type.Proto() != protocol.IEC104 {
			continue
		}
		k := historian.PointKey{Station: s.Key.Station, IOA: s.Key.IOA}
		keys = append(keys, k)
		for _, smp := range s.Samples {
			samples = append(samples, sample{k, s.Type, s.Command, smp})
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("live packets carry no IEC 104 samples")
	}
	st, err := historian.Open(filepath.Join(rc.dir, "probe-hist"), historian.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	res := &historianResult{Samples: len(samples)}
	batch := (len(samples) + historianSyncs - 1) / historianSyncs
	sp := rc.rec.begin("historian.append+sync", -1, 0)
	for lo := 0; lo < len(samples); lo += batch {
		t0 := time.Now()
		for _, s := range samples[lo:min(lo+batch, len(samples))] {
			if err := st.Append(s.key, s.typ, s.cmd, s.s); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		if err := st.Sync(); err != nil {
			return nil, err
		}
		res.Append += t1.Sub(t0)
		res.SyncMS = append(res.SyncMS, ms(time.Since(t1)))
	}
	rc.rec.end(sp)
	sp = rc.rec.begin("historian.query", -1, 0)
	for i := 0; i < queryProbes; i++ {
		t0 := time.Now()
		if _, err := st.Query(keys[i%len(keys)], time.Time{}, time.Time{}); err != nil {
			return nil, err
		}
		res.QueryMS = append(res.QueryMS, ms(time.Since(t0)))
	}
	rc.rec.end(sp)
	return res, nil
}

// driftResult is the drift codec and comparer driven directly.
type driftResult struct {
	Encode, Decode, Compare time.Duration
	Bytes                   int
}

// driftProbe encodes, decodes and compares the whole capture's profile
// against the warm-up baseline; the median of driftRepeats each.
func (rc *runCtx) driftProbe(final core.Partial) (*driftResult, error) {
	base, err := drift.LoadProfile(rc.fleet.BaselinePath)
	if err != nil {
		return nil, err
	}
	prof := drift.NewProfile("whole", rc.cap.path, final, time.Unix(0, 0).UTC())
	var enc, dec, cmp []float64
	res := &driftResult{}
	for i := 0; i < driftRepeats; i++ {
		sp := rc.rec.begin("drift.encode", -1, i)
		body := prof.Encode()
		enc = append(enc, rc.rec.end(sp).Seconds())
		res.Bytes = len(body)
		sp = rc.rec.begin("drift.decode", -1, i)
		got, err := drift.DecodeProfile(body)
		dec = append(dec, rc.rec.end(sp).Seconds())
		if err != nil {
			return nil, err
		}
		sp = rc.rec.begin("drift.compare", -1, i)
		drift.Compare(base, got, drift.DefaultThresholds())
		cmp = append(cmp, rc.rec.end(sp).Seconds())
	}
	sec := func(xs []float64) time.Duration { return time.Duration(median(xs) * float64(time.Second)) }
	res.Encode, res.Decode, res.Compare = sec(enc), sec(dec), sec(cmp)
	return res, nil
}

// httpProbe measures what a real socket adds: the fleet behind an
// http.Server on loopback, httpConns keep-alive connections each
// fetching a cached document plan.HTTPRequests times.
func (rc *runCtx) httpProbe() ([]float64, error) {
	svc, err := bootFleet(rc.fleet, filepath.Join(rc.dir, "http-fleet"))
	if err != nil {
		return nil, err
	}
	defer svc.Drain()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns ErrServerClosed after Shutdown below
	}()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()

	url := "http://" + ln.Addr().String() + "/v1/live0/profile?format=text"
	sp := rc.rec.begin("service.http_rtt", -1, 0)
	defer rc.rec.end(sp)
	var mu sync.Mutex
	var rtts []float64
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < httpConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			local := make([]float64, 0, rc.plan.HTTPRequests)
			for i := 0; i < rc.plan.HTTPRequests; i++ {
				t0 := time.Now()
				resp, err := client.Get(url)
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, ms(time.Since(t0)))
			}
			mu.Lock()
			rtts = append(rtts, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return rtts, firstErr
}
