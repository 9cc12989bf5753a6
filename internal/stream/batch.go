package stream

import (
	"sync"
	"time"

	"uncharted/internal/pcap"
)

// A fresh carrier's slab is a quarter above the fullest batch its
// reader has handed off so far, within these bounds. maxSlabCap is room
// for a default 64-record batch of near-full-size frames; a
// small-packet capture fills an eighth of that.
const (
	minSlabCap = 4 << 10
	maxSlabCap = 64 << 10
)

// rawFrame locates one record inside a batch slab. Offsets, not
// subslices: the slab's backing array may move while the reader is
// still appending frames to the batch.
type rawFrame struct {
	off, end int
	ci       pcap.CaptureInfo
}

// batch is one unit of work on a shard queue, filled by one reader for
// one shard. A RawSource reader packs undecoded records back to back
// into slab, located by frames, and the shard decodes them; a plain
// Source reader appends already-decoded packets to pkts. A run fills
// one kind only, so the other slice stays nil and costs nothing. The
// consuming shard hands the batch back to the pool it came from, so a
// steady-state run cycles a fixed set of carriers with no per-batch
// allocation.
type batch struct {
	pool *batchPool

	link   pcap.LinkType
	slab   []byte
	frames []rawFrame

	pkts []pcap.Packet
}

// size returns how many records the batch carries.
func (b *batch) size() int { return len(b.frames) + len(b.pkts) }

// firstTime returns the capture timestamp of the batch's first record.
func (b *batch) firstTime() time.Time {
	if len(b.frames) > 0 {
		return b.frames[0].ci.Timestamp
	}
	return b.pkts[0].Info.Timestamp
}

// addRaw copies one undecoded record into the slab.
func (b *batch) addRaw(data []byte, ci pcap.CaptureInfo) {
	off := len(b.slab)
	b.slab = append(b.slab, data...)
	b.frames = append(b.frames, rawFrame{off: off, end: off + len(data), ci: ci})
}

// recycle empties the batch and returns it to its pool. The caller
// must be done with every record: slab bytes are invalid from here on
// (and overwritten when the pool poisons), and the packet entries are
// zeroed to drop their payload references.
func (b *batch) recycle() {
	p := b.pool
	if p.poison {
		for i := range b.slab {
			b.slab[i] = 0xDB
		}
	}
	b.slab = b.slab[:0]
	b.frames = b.frames[:0]
	clear(b.pkts)
	b.pkts = b.pkts[:0]
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// batchPool is the free list of batch carriers shared by one reader
// (producer) and the shards (consumers). A plain mutex-guarded list
// rather than sync.Pool: the producer Gets on its own goroutine while
// consumers Put from shard goroutines, and sync.Pool's per-P caches
// turn that steady cross-goroutine flow into misses — the
// allocs-grow-with-shards regression TestSegmentedAllocsGuard pins. A
// single uncontended lock per batch (amortized over BatchSize records)
// is far cheaper than re-allocating slabs.
type batchPool struct {
	// poison overwrites every recycled slab with 0xDB, so a consumer
	// that wrongly keeps a frame past recycle sees garbage instead of
	// stale bytes. Tests only; set before the pool is shared.
	poison bool

	// fullest and most are the most slab bytes and raw records a batch
	// carried when its reader handed it off. Reader side only (sent,
	// get), so not under mu.
	fullest, most int

	mu   sync.Mutex
	free []*batch
}

// sent notes how full b is as its reader hands it off.
func (p *batchPool) sent(b *batch) {
	p.fullest = max(p.fullest, len(b.slab))
	p.most = max(p.most, len(b.frames))
}

func (p *batchPool) get() *batch {
	p.mu.Lock()
	var b *batch
	if n := len(p.free); n > 0 {
		b, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if b == nil {
		b = &batch{pool: p}
		if p.fullest > 0 {
			b.slab = make([]byte, 0, min(max(p.fullest+p.fullest/4, minSlabCap), maxSlabCap))
			b.frames = make([]rawFrame, 0, p.most)
		}
	}
	return b
}
