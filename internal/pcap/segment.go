package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the segment planner behind the streaming engine's
// parallel ingest: it splits a seekable capture into record-aligned
// byte ranges so N readers can pull from the same file concurrently,
// each through its own state-seeded PacketReader.
//
// Classic pcap has no framing magic per record, so boundaries are
// found by probing: from a candidate offset, walk successive record
// headers and accept the candidate only when a chain of them
// validates (sane lengths, sane and near-monotonic timestamps) or the
// walk lands exactly on EOF. pcapng is self-framing — every block
// carries its type, a length and a trailing length copy — so the
// planner hops block to block from the start of the file, tracking
// the per-section byte order and interface table, and cuts at block
// boundaries with a snapshot of that state. A section header (SHB)
// in the middle of the file resets the interface table exactly as a
// sequential read would.

// Segment is one planned byte range of a capture. Off/End delimit the
// range; records never straddle segments.
type Segment struct {
	Off int64
	End int64
}

// Size returns the segment's byte length.
func (s Segment) Size() int64 { return s.End - s.Off }

// SegmentPlan is a record-aligned split of one seekable capture.
// Open returns an independent PacketReader per segment; reading all
// segments in order yields exactly the records a sequential read of
// the whole file would.
type SegmentPlan struct {
	ra   io.ReaderAt
	img  []byte // the capture, when planned by PlanImage
	segs []Segment

	// classic pcap state (nil ngStates means classic).
	fileHeader

	// pcapng per-segment state snapshots, parallel to segs.
	ngStates []ngState
}

// Planner tuning constants.
const (
	// segChainHops is how many successive record headers must validate
	// before a classic-pcap probe offset is accepted as a boundary
	// (reaching exact EOF sooner also accepts). One plausible-looking
	// 16-byte run inside a packet body is cheap to fake; four chained
	// headers with consistent lengths and near-monotonic timestamps are
	// not.
	segChainHops = 4
	// segMaxScan bounds the forward scan from a probe offset. If no
	// boundary validates within it, the candidate boundary is dropped
	// and the previous segment absorbs the range (correctness first:
	// fewer readers, never a torn record).
	segMaxScan = 1 << 20
	// segSaneLen caps believable capture/wire lengths during probing.
	segSaneLen = 1 << 22
)

// PlanSegments splits a capture of the given size into up to n
// record-aligned segments. It sniffs the format itself (classic pcap
// either endianness, µs or ns; pcapng) and may return fewer than n
// segments — always at least one covering the whole record area —
// when the file is too small or boundaries cannot be validated.
func PlanSegments(ra io.ReaderAt, size int64, n int) (*SegmentPlan, error) {
	return plan(ra, size, n, input{r: buffered(io.NewSectionReader(ra, 0, size))})
}

// PlanImage is PlanSegments over a capture held whole in memory. The
// plan and its segment readers read the image in place, like
// NewImageReader, and img must stay unchanged while any of them is in
// use.
func PlanImage(img []byte, n int) (*SegmentPlan, error) {
	p, err := plan(bytes.NewReader(img), int64(len(img)), n, input{img: img, end: len(img)})
	if err != nil {
		return nil, err
	}
	p.img = img
	return p, nil
}

// plan sniffs the format and plans ra; in reads the same capture front
// to back, which is how a pcapng plan walks it.
func plan(ra io.ReaderAt, size int64, n int, in input) (*SegmentPlan, error) {
	var magic [4]byte
	if _, err := ra.ReadAt(magic[:], 0); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // as NewAutoReader: a capture has a header
		}
		return nil, fmt.Errorf("pcap: sniffing capture format: %w", err)
	}
	var p *SegmentPlan
	var err error
	if binary.BigEndian.Uint32(magic[:]) == blockSHB {
		p, err = planNg(in, size, max(n, 1))
	} else {
		p, err = planClassic(ra, size, max(n, 1))
	}
	if err != nil {
		return nil, err
	}
	p.ra = ra
	return p, nil
}

// Len returns the number of planned segments.
func (p *SegmentPlan) Len() int { return len(p.segs) }

// Segment returns the i-th planned byte range.
func (p *SegmentPlan) Segment(i int) Segment { return p.segs[i] }

// Open returns a fresh PacketReader over segment i, seeded with the
// capture state (byte order, link type, interface table) a sequential
// read would have at the segment's start. Readers from different
// segments are fully independent and may be used concurrently.
func (p *SegmentPlan) Open(i int) (PacketReader, error) {
	if i < 0 || i >= len(p.segs) {
		return nil, fmt.Errorf("pcap: segment %d out of range [0,%d)", i, len(p.segs))
	}
	seg := p.segs[i]
	in := input{img: p.img, pos: int(seg.Off), end: int(seg.End)}
	if p.img == nil {
		in = input{r: buffered(io.NewSectionReader(p.ra, seg.Off, seg.Size())), pos: int(seg.Off)}
	}
	if p.ngStates != nil {
		return &NgReader{in: in, ngState: p.ngStates[i]}, nil
	}
	return &Reader{in: in, fileHeader: p.fileHeader, layout: &Layout{classic: p.fileHeader}}, nil
}

// planClassic probes for record boundaries in a classic pcap file.
func planClassic(ra io.ReaderAt, size int64, n int) (*SegmentPlan, error) {
	var hdr [24]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	h, err := parseFileHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	p := &SegmentPlan{fileHeader: h}

	const dataOff = 24
	if size <= dataOff || n == 1 {
		p.segs = []Segment{{Off: dataOff, End: max(size, dataOff)}}
		return p, nil
	}

	// The first record's timestamp anchors the sanity window for every
	// probe: captures span hours to months, not decades.
	v := &segValidator{ra: ra, size: size, order: p.order, snapLen: p.snapLen}
	var refSec uint32
	refSec, _, _, v.haveRef = v.header(dataOff)
	v.refSec = int64(refSec)

	bounds := []int64{dataOff}
	span := size - dataOff
	for k := 1; k < n; k++ {
		target := dataOff + span*int64(k)/int64(n)
		if target <= bounds[len(bounds)-1] {
			continue
		}
		if off, ok := v.findBoundary(target); ok && off > bounds[len(bounds)-1] && off < size {
			bounds = append(bounds, off)
		}
		// A failed probe drops this boundary: the previous segment
		// simply extends further. Fewer readers, never a torn record.
	}
	for i, off := range bounds {
		end := size
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		p.segs = append(p.segs, Segment{Off: off, End: end})
	}
	return p, nil
}

// segValidator validates candidate record offsets in a classic pcap.
type segValidator struct {
	ra      io.ReaderAt
	size    int64
	order   binary.ByteOrder
	snapLen uint32
	refSec  int64
	haveRef bool

	// hdr receives each probed header: ReadAt takes its buffer through
	// an interface, so a local array would be a heap allocation per read.
	hdr [16]byte
}

// findBoundary scans forward from target for the first offset where a
// record-header chain validates.
func (v *segValidator) findBoundary(target int64) (int64, bool) {
	for off, end := target, min(target+segMaxScan, v.size); off < end; off++ {
		if v.validChain(off) {
			return off, true
		}
	}
	return 0, false
}

// header reads the 16-byte record header at off.
func (v *segValidator) header(off int64) (sec, capLen, origLen uint32, ok bool) {
	if off+16 > v.size {
		return 0, 0, 0, false
	}
	if _, err := v.ra.ReadAt(v.hdr[:], off); err != nil {
		return 0, 0, 0, false
	}
	return v.order.Uint32(v.hdr[0:4]), v.order.Uint32(v.hdr[8:12]), v.order.Uint32(v.hdr[12:16]), true
}

// validChain accepts off as a record boundary when segChainHops
// successive headers pass the length and timestamp checks, or a
// shorter chain lands exactly on EOF (the tail of the file).
// Overrunning EOF mid-chain — a truncated record, or garbage — rejects
// the candidate.
func (v *segValidator) validChain(off int64) bool {
	snapBound := uint32(segSaneLen)
	if v.snapLen != 0 && v.snapLen < snapBound {
		snapBound = v.snapLen
	}
	prevSec := int64(-1)
	cur := off
	for hop := 0; hop < segChainHops; hop++ {
		sec32, capLen, origLen, ok := v.header(cur)
		if !ok {
			return false
		}
		if capLen > snapBound || origLen > segSaneLen || origLen < capLen {
			return false
		}
		sec := int64(sec32)
		if v.haveRef {
			// Within two days before the capture start to ~20 years
			// after: generous for multi-month captures, tight against
			// payload bytes masquerading as timestamps.
			if sec < v.refSec-2*86400 || sec > v.refSec+20*365*86400 {
				return false
			}
		}
		if prevSec >= 0 && (sec < prevSec-3600 || sec > prevSec+30*86400) {
			// Records are near-monotonic; allow reordering slack and
			// capture gaps, reject wild jumps.
			return false
		}
		prevSec = sec
		cur += 16 + int64(capLen)
		if cur == v.size {
			return true
		}
		if cur > v.size {
			return false
		}
	}
	return true
}

// planNg walks the self-framing pcapng block chain with the reader's
// own block parser, snapshotting section state at each cut. A torn
// final block ends the walk: the last segment covers it, and its reader
// reports the truncation a sequential read would.
func planNg(in input, size int64, n int) (*SegmentPlan, error) {
	p := &SegmentPlan{}
	ng := &NgReader{in: in}
	// first pass target spacing
	cutEvery := size / int64(n)
	if cutEvery < 1 {
		cutEvery = size
	}
	nextCut := cutEvery

	startSeg := func(at int64) {
		p.segs = append(p.segs, Segment{Off: at})
		// Capped, so a segment reader's appends never write into the
		// table the walk (or another segment) goes on using.
		ifaces := ng.ifaces[:len(ng.ifaces):len(ng.ifaces)]
		p.ngStates = append(p.ngStates, ngState{order: ng.order, ifaces: ifaces})
	}
	startSeg(0)

	for {
		typ, body, err := ng.readBlock()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		switch typ {
		case blockSHB:
			err = ng.parseSHB(body)
		case blockIDB:
			err = ng.parseIDB(body)
		}
		if err != nil {
			return nil, err
		}
		off := int64(ng.in.pos)
		if off >= nextCut && off < size && len(p.segs) < n {
			p.segs[len(p.segs)-1].End = off
			startSeg(off)
			for nextCut <= off {
				nextCut += cutEvery
			}
		}
	}
	p.segs[len(p.segs)-1].End = size
	// Drop empty trailing segments (cut landed exactly at EOF).
	for len(p.segs) > 1 && p.segs[len(p.segs)-1].Size() <= 0 {
		p.segs = p.segs[:len(p.segs)-1]
		p.ngStates = p.ngStates[:len(p.ngStates)-1]
		p.segs[len(p.segs)-1].End = size
	}
	return p, nil
}
