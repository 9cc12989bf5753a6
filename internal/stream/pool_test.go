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
		BatchSize:  4,
		QueueDepth: 2,
		Names:      core.NamesFromTopology(sim.Network()),
	})
	e.poison = true
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
