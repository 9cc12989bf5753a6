// Package historian is the pipeline's embedded measurement store: an
// append-only, compressed on-disk time-series database for decoded
// IEC 104 measurements, the layer that makes §7-style deep packet
// inspection possible over long horizons. The paper's event
// signatures (generator synchronisation, unmet load) and stale-data
// pathologies only surface when two *years* of physical values stay
// queryable; this package retains every extracted sample across
// restarts, in about a quarter of the raw 16 bytes a sample (4.2 B on
// the live benchmark's capture).
//
// Layout: samples are buffered per point and flushed as compressed
// blocks — Gorilla-style delta-of-delta timestamps plus XOR float
// compression, CRC-checked — into append-only segment files. Sealed
// segments carry an in-file sparse index keyed by (station, IOA,
// type); the active segment is recovered on open by scanning and
// truncating any torn tail block. Sync makes the buffers durable
// through an append-only journal (journal.go) rather than by cutting
// blocks, so block boundaries do not depend on how often a caller
// syncs. Queries merge on-disk blocks with the in-memory tail, so a
// point's history is always complete.
package historian

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"uncharted/internal/physical"
)

// Codec errors.
var (
	// ErrCorrupt reports a block payload that cannot be decoded — a
	// torn write or bit rot (CRC failures surface at the segment
	// layer; this is the bit-level backstop).
	ErrCorrupt = errors.New("historian: corrupt block")
)

// maxBlockSamples bounds a single block's sample count; it protects
// the decoder from allocating on a corrupt count field. Writers flush
// far below this.
const maxBlockSamples = 1 << 20

// EncodeBlock compresses samples into a block payload. Samples are
// encoded in the given order; the store sorts each buffer by time
// before flushing, but the codec itself tolerates any order (the
// delta-of-delta stream carries signed values), so out-of-order
// timestamps round-trip bit-exactly too. Values round-trip bit-exactly
// including NaN and ±Inf: the XOR scheme operates on raw IEEE-754
// bits.
//
// Payload layout: uvarint sample count, uvarint timestamp scale, then
// 8 bytes first timestamp (unix nanoseconds, little endian) and
// 8 bytes first value bits, then a bit stream with, per subsequent
// sample:
//
//	timestamps — delta-of-delta in scale units, bucketed:
//	  '0'                 dod == 0
//	  '10' + 16 bits      dod in [-2^15, 2^15)
//	  '110' + 32 bits     dod in [-2^31, 2^31)
//	  '111' + 64 bits     anything else
//	values — XOR with the previous value's bits:
//	  '0'                 xor == 0
//	  '10' + meaningful   reuse the previous leading/trailing window
//	  '11' + 6+6 + bits   new window: leading count, significant-1, bits
//
// The timestamp scale is the GCD of all deltas in the block: CP56
// time tags are millisecond-quantized and capture stamps microsecond-
// quantized, so encoding deltas in their natural unit instead of raw
// nanoseconds keeps delta-of-deltas in the 1-bit or 16-bit buckets.
// Division by the exact GCD is lossless.
func EncodeBlock(samples []physical.Sample) []byte {
	slots := make([]slot, len(samples))
	for i, s := range samples {
		slots[i] = slot{t: s.T.UnixNano(), v: s.V}
	}
	return appendBlock(nil, slots)
}

// appendBlock appends the block payload of samples to dst. It is the
// one encoder: the store's flush path hands it store-owned scratch, so
// a flush allocates nothing once the scratch has grown to size.
func appendBlock(dst []byte, samples []slot) []byte {
	var head [2*binary.MaxVarintLen64 + 16]byte
	n := binary.PutUvarint(head[:], uint64(len(samples)))
	if len(samples) == 0 {
		return append(dst, head[:n]...)
	}
	first := samples[0]
	scale := int64(0)
	prev := first.t
	for _, s := range samples[1:] {
		scale = gcd64(scale, s.t-prev)
		prev = s.t
	}
	if scale <= 0 {
		scale = 1
	}
	n += binary.PutUvarint(head[n:], uint64(scale))
	binary.LittleEndian.PutUint64(head[n:], uint64(first.t))
	binary.LittleEndian.PutUint64(head[n+8:], math.Float64bits(first.v))
	w := bitWriter{b: append(dst, head[:n+16]...)}

	prevTS := first.t
	var prevDelta int64
	prevBits := math.Float64bits(first.v)
	leading, trailing := uint(255), uint(0) // 255 = no window yet

	for _, s := range samples[1:] {
		ts := s.t
		delta := (ts - prevTS) / scale
		dod := delta - prevDelta
		prevTS, prevDelta = ts, delta
		switch {
		case dod == 0:
			w.writeBit(0)
		case dod >= math.MinInt16 && dod <= math.MaxInt16:
			w.writeBits(0b10, 2)
			w.writeBits(uint64(dod)&0xFFFF, 16)
		case dod >= math.MinInt32 && dod <= math.MaxInt32:
			w.writeBits(0b110, 3)
			w.writeBits(uint64(dod)&0xFFFFFFFF, 32)
		default:
			w.writeBits(0b111, 3)
			w.writeBits(uint64(dod), 64)
		}

		vb := math.Float64bits(s.v)
		xor := vb ^ prevBits
		prevBits = vb
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		lead := uint(bits.LeadingZeros64(xor))
		trail := uint(bits.TrailingZeros64(xor))
		if lead > 31 { // cap so the 5/6-bit window fields always fit
			lead = 31
		}
		if leading != 255 && lead >= leading && trail >= trailing {
			w.writeBits(0b10, 2)
			w.writeBits(xor>>trailing, 64-leading-trailing)
			continue
		}
		leading, trailing = lead, trail
		sig := 64 - lead - trail
		w.writeBits(0b11, 2)
		w.writeBits(uint64(lead), 6)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>trail, sig)
	}
	return w.bytes()
}

// DecodeBlock reverses EncodeBlock. It is total: any input either
// decodes or returns ErrCorrupt — never a panic — so it doubles as
// the fuzz target.
func DecodeBlock(payload []byte) ([]physical.Sample, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad count varint", ErrCorrupt)
	}
	if count == 0 {
		return nil, nil
	}
	if count > maxBlockSamples || count > uint64(len(payload))*8 {
		return nil, fmt.Errorf("%w: implausible count %d for %d payload bytes", ErrCorrupt, count, len(payload))
	}
	uscale, m := binary.Uvarint(payload[n:])
	if m <= 0 || uscale == 0 || uscale > math.MaxInt64 {
		return nil, fmt.Errorf("%w: bad timestamp scale", ErrCorrupt)
	}
	scale := int64(uscale)
	n += m
	if len(payload) < n+16 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	ts := int64(binary.LittleEndian.Uint64(payload[n:]))
	vb := binary.LittleEndian.Uint64(payload[n+8:])
	out := make([]physical.Sample, 0, count)
	out = append(out, physical.Sample{T: time.Unix(0, ts).UTC(), V: math.Float64frombits(vb)})

	r := &bitReader{b: payload[n+16:]}
	var delta int64
	leading, trailing := uint(255), uint(0)
	for uint64(len(out)) < count {
		// Timestamp.
		b, err := r.readBit()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		var dod int64
		if b == 1 {
			b2, err := r.readBit()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			switch {
			case b2 == 0:
				u, err := r.readBits(16)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
				dod = int64(int16(u))
			default:
				b3, err := r.readBit()
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
				width := uint(64)
				if b3 == 0 {
					width = 32
				}
				u, err := r.readBits(width)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
				if width == 32 {
					dod = int64(int32(u))
				} else {
					dod = int64(u)
				}
			}
		}
		delta += dod
		ts += delta * scale

		// Value.
		b, err = r.readBit()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if b == 1 {
			b2, err := r.readBit()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if b2 == 1 {
				lead, err := r.readBits(6)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
				sigm1, err := r.readBits(6)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
				sig := uint(sigm1) + 1
				if uint(lead)+sig > 64 {
					return nil, fmt.Errorf("%w: window %d+%d exceeds 64 bits", ErrCorrupt, lead, sig)
				}
				leading = uint(lead)
				trailing = 64 - leading - sig
			} else if leading == 255 {
				return nil, fmt.Errorf("%w: window reuse before first window", ErrCorrupt)
			}
			sig := 64 - leading - trailing
			u, err := r.readBits(sig)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			vb ^= u << trailing
		}
		out = append(out, physical.Sample{T: time.Unix(0, ts).UTC(), V: math.Float64frombits(vb)})
	}
	return out, nil
}

// sortSamples orders samples by time, stably, so append order breaks
// ties exactly like physical.Store.Feed's insertion rule. A buffer
// filled in arrival order is almost always ordered already.
func sortSamples(s []physical.Sample) {
	if !slices.IsSortedFunc(s, compareTime) {
		slices.SortStableFunc(s, compareTime)
	}
}

func compareTime(a, b physical.Sample) int { return a.T.Compare(b.T) }

// sortSlots is sortSamples for packed samples.
func sortSlots(s []slot) {
	if !slices.IsSortedFunc(s, compareSlot) {
		slices.SortStableFunc(s, compareSlot)
	}
}

func compareSlot(a, b slot) int { return cmp.Compare(a.t, b.t) }

// gcd64 is the non-negative GCD; gcd64(0, x) == |x|.
func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
