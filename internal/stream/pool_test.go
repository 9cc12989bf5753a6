package stream

import (
	"bytes"
	"context"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/pcap"
)

// TestBufferPoolLifecycleAcrossShards hammers the pooled raw path's
// recycle/reuse cycle: tiny batches and shallow queues force slabs
// through the pool as fast as four shards can drain them, and
// poison-on-release overwrites every slab with 0xDB the moment a shard
// returns it. A use-after-release anywhere — reader appending into a
// released slab, shard decoding after recycling — surfaces either as a
// race report under -race or as poisoned frames whose decode failures
// break the exact offline equivalence asserted at the end.
func TestBufferPoolLifecycleAcrossShards(t *testing.T) {
	sim, tr := simulate(t, 23, 3*time.Minute)
	capture := tracePCAP(t, tr)
	want := offlinePartial(t, sim, capture)

	src, err := NewPCAPSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{
		Workers:    4,
		QueueDepth: 2,
		Names:      core.NamesFromTopology(sim.Network()),
	})
	e.poison, e.batchSize = true, 4
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, want, e.Final())
}

// TestBatchRecyclePoisons pins the tripwire the lifecycle test relies
// on: a poisoning pool overwrites a recycled slab before anyone can
// reuse it, and hands the same carrier back empty.
func TestBatchRecyclePoisons(t *testing.T) {
	pool := &batchPool{poison: true}
	b := pool.get()
	b.addRaw([]byte{1, 2, 3}, pcap.CaptureInfo{})
	b.pkts = append(b.pkts, pcap.Packet{TCP: pcap.TCP{Payload: []byte{4}}})
	stale := b.slab[:3]
	b.recycle()
	for i, v := range stale {
		if v != 0xDB {
			t.Fatalf("recycled byte %d = %#02x, want poison 0xDB", i, v)
		}
	}
	if got := pool.get(); got != b || got.size() != 0 || len(got.slab) != 0 {
		t.Fatalf("pool returned %p with %d records / %d slab bytes, want the recycled batch, empty", got, got.size(), len(got.slab))
	}
	if b.pkts[:1][0].TCP.Payload != nil {
		t.Error("recycle kept a packet's payload reference alive")
	}
}

// TestSlabSizedByTraffic: a carrier's slab is as large as the run's
// batches need, not a fixed 64 KiB. A reader fills batches of 64
// records, hands them off and keeps up to depth in flight before the
// shard returns the oldest. After a run of 100-byte packets no slab in
// the pool is larger than twice what the fullest batch carried — the
// carrier made before anything was handed off (grown by append) and the
// ones made after (sized from the fullest sent, whether or not any has
// come back) alike — and a run of 1 400-byte packets, whose batches
// outgrow any fresh slab, allocates nothing once its carriers have been
// round.
func TestSlabSizedByTraffic(t *testing.T) {
	const depth, records = 8, 64
	// cycle runs n batches of data-sized records through pool.
	cycle := func(pool *batchPool, inflight []*batch, data []byte, n int) []*batch {
		for i := 0; i < n; i++ {
			if len(inflight) == depth {
				inflight[0].recycle()
				inflight = append(inflight[:0], inflight[1:]...)
			}
			b := pool.get()
			for r := 0; r < records; r++ {
				b.addRaw(data, pcap.CaptureInfo{})
			}
			pool.sent(b)
			inflight = append(inflight, b)
		}
		return inflight
	}

	small, packet := &batchPool{}, make([]byte, 100)
	for _, b := range cycle(small, nil, packet, 40) {
		b.recycle()
	}
	if len(small.free) != depth || small.fullest != records*len(packet) || small.most != records {
		t.Fatalf("%d carriers in the pool, fullest %d bytes in %d records; want %d, %d and %d",
			len(small.free), small.fullest, small.most, depth, records*len(packet), records)
	}
	for i, b := range small.free {
		if c := cap(b.slab); c < small.fullest || c > 2*small.fullest || cap(b.frames) < records || cap(b.frames) > 2*records {
			t.Errorf("carrier %d: a %d-byte slab and %d frame slots for batches of %d bytes in %d records", i, c, cap(b.frames), small.fullest, records)
		}
	}

	full, packet := &batchPool{}, make([]byte, 1400)
	inflight := cycle(full, nil, packet, 2*depth)
	if n := testing.AllocsPerRun(50, func() { inflight = cycle(full, inflight, packet, depth) }); n != 0 {
		t.Errorf("%v allocations per %d full-size batches after warm-up, want 0", n, depth)
	}
}
