// Package pcap reads and writes libpcap capture files and decodes /
// serializes the Ethernet, IPv4 and TCP layers the measurement pipeline
// needs. It is a from-scratch, stdlib-only substrate standing in for
// libpcap bindings: the synthesized bulk-power traces are written in
// this format, and the analysis side reads either those or real
// captures.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers of the classic libpcap file header.
const (
	magicMicros        = 0xa1b2c3d4 // microsecond timestamps, writer byte order
	magicNanos         = 0xa1b23c4d // nanosecond timestamps
	magicMicrosSwapped = 0xd4c3b2a1
	magicNanosSwapped  = 0x4d3cb2a1
)

// LinkType identifies the capture's link layer.
type LinkType uint32

// Link types used here.
const (
	LinkTypeEthernet LinkType = 1
	LinkTypeRaw      LinkType = 101 // raw IP
)

// CaptureInfo carries the per-packet record header fields.
type CaptureInfo struct {
	Timestamp     time.Time
	CaptureLength int // bytes present in the file
	Length        int // original wire length
}

// Reader decodes a libpcap stream, or an image (NewImageReader).
type Reader struct {
	in input
	fileHeader
	layout *Layout
	recHdr []byte // a stream's record header
}

// fileHeader is what a classic capture's global header says about
// every record behind it.
type fileHeader struct {
	order   binary.ByteOrder
	nanos   bool
	link    LinkType
	snapLen uint32
}

// parseFileHeader decodes the 24-byte global header.
func parseFileHeader(hdr []byte) (fileHeader, error) {
	var h fileHeader
	switch magic := binary.LittleEndian.Uint32(hdr[0:4]); magic {
	case magicMicros:
		h.order = binary.LittleEndian
	case magicNanos:
		h.order, h.nanos = binary.LittleEndian, true
	case magicMicrosSwapped:
		h.order = binary.BigEndian
	case magicNanosSwapped:
		h.order, h.nanos = binary.BigEndian, true
	default:
		return h, fmt.Errorf("%w: %#08x", ErrBadMagic, magic)
	}
	h.snapLen = h.order.Uint32(hdr[16:20])
	h.link = LinkType(h.order.Uint32(hdr[20:24]))
	return h, nil
}

// maxRecordLen bounds the capture length the reader believes whatever
// snap length the file header declares (a damaged or hostile header can
// say 0, meaning unlimited, or 0xFFFFFFFF): the record body is allocated
// before it is read, so an unchecked length lets a 40-byte file ask for
// 4 GB. It is the pcapng reader's block ceiling.
const maxRecordLen = 1 << 24

// Errors returned by the reader.
var (
	ErrBadMagic = errors.New("pcap: unrecognised magic number")
	ErrSnapLen  = errors.New("pcap: record exceeds snap length")
)

// buffered wraps r in a bufio.Reader unless it is already buffered.
// Implementing io.ByteReader is the signal that r serves small reads
// cheaply itself (bufio.Reader, bytes.Reader, strings.Reader, and the
// stream package's tailing source all do); wrapping those again would
// either waste a copy or, for the tailing source, read ahead past the
// bytes its framing gate has admitted.
func buffered(r io.Reader) io.Reader {
	if _, ok := r.(io.ByteReader); ok {
		return r
	}
	return bufio.NewReaderSize(r, 64<<10)
}

// NewReader parses the global header from r. Unless r is already
// buffered (implements io.ByteReader) it is wrapped in a bufio.Reader
// so per-record header reads do not hit the underlying file.
func NewReader(r io.Reader) (*Reader, error) {
	return newReader(input{r: buffered(r)})
}

func newReader(in input) (*Reader, error) {
	var buf []byte
	hdr, err := in.take(24, &buf)
	if err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	h, err := parseFileHeader(hdr)
	if err != nil {
		return nil, err
	}
	return &Reader{in: in, fileHeader: h, layout: &Layout{classic: h}}, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() LinkType { return r.link }

// ReadPacket returns the next record in a freshly allocated buffer the
// caller owns outright. It returns io.EOF cleanly at the end of the
// stream. Hot paths should prefer ReadPacketInto, which reuses a
// caller-supplied scratch buffer instead of allocating per packet.
func (r *Reader) ReadPacket() ([]byte, CaptureInfo, error) {
	return r.ReadPacketInto(nil)
}

// ReadPacketInto reads the next record into scratch, growing it if
// needed, and returns the (possibly reallocated) slice holding exactly
// the record bytes. The returned slice shares scratch's backing array:
// it is only valid until the next ReadPacketInto call that reuses it.
// Callers keep the returned slice as the scratch for the next call to
// amortize the allocation to zero. Passing nil always allocates, which
// is what ReadPacket does.
func (r *Reader) ReadPacketInto(scratch []byte) ([]byte, CaptureInfo, error) {
	_, hdr, data, err := r.next(scratch)
	if err != nil {
		return nil, CaptureInfo{}, err
	}
	if r.in.r == nil {
		data = append(scratch[:0], data...) // an image's bytes stay in it
	}
	return data, r.record(hdr), nil
}

// NextAt reads the next record without handing out its bytes: they are
// bytes [off, end) of the capture, and l.Record reads the record again
// from hdr, where its header starts. Over an image (NewImageReader,
// PlanImage) nothing was copied. Errors are ReadPacket's.
func (r *Reader) NextAt() (hdr, off, end int, l *Layout, err error) {
	at, _, data, err := r.next(nil)
	return at, r.in.pos - len(data), r.in.pos, r.layout, err
}

// next reads one record: where it starts, its header, and its bytes —
// in scratch from a stream, in place from an image.
func (r *Reader) next(scratch []byte) (int, []byte, []byte, error) {
	at := r.in.pos
	hdr, err := r.in.take(16, &r.recHdr)
	if err != nil {
		if err == io.EOF {
			return at, nil, nil, io.EOF
		}
		return at, nil, nil, fmt.Errorf("pcap: record at byte %d: header: %w", at, err)
	}
	capLen := r.order.Uint32(hdr[8:12])
	limit := r.snapLen
	if limit == 0 || limit > maxRecordLen {
		limit = maxRecordLen
	}
	if capLen > limit {
		return at, nil, nil, fmt.Errorf("%w: %d > %d", ErrSnapLen, capLen, limit)
	}
	data, err := r.in.take(int(capLen), &scratch)
	if err != nil {
		return at, nil, nil, fmt.Errorf("pcap: record at byte %d: body: %w", at, err)
	}
	return at, hdr, data, nil
}

// record decodes a 16-byte record header.
func (h *fileHeader) record(hdr []byte) CaptureInfo {
	frac := h.order.Uint32(hdr[4:8])
	nanos := int64(frac) * 1000
	if h.nanos {
		nanos = int64(frac)
	}
	return CaptureInfo{
		Timestamp:     time.Unix(int64(h.order.Uint32(hdr[0:4])), nanos).UTC(),
		CaptureLength: int(h.order.Uint32(hdr[8:12])),
		Length:        int(h.order.Uint32(hdr[12:16])),
	}
}

// grow returns a length-n slice backed by scratch when its capacity
// allows, allocating otherwise.
func grow(scratch []byte, n int) []byte {
	if cap(scratch) >= n {
		return scratch[:n]
	}
	return make([]byte, n)
}

// Writer emits a libpcap stream with microsecond timestamps in little-
// endian byte order.
type Writer struct {
	w       io.Writer
	snapLen uint32
	wrote   bool
	link    LinkType
}

// NewWriter returns a Writer targeting w. The global header is written
// lazily by the first WritePacket (or explicitly by WriteHeader).
func NewWriter(w io.Writer, link LinkType) *Writer {
	return &Writer{w: w, snapLen: 262144, link: link}
}

// WriteHeader writes the global file header.
func (w *Writer) WriteHeader() error {
	if w.wrote {
		return nil
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], w.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(w.link))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing global header: %w", err)
	}
	w.wrote = true
	return nil
}

// WritePacket appends one record.
func (w *Writer) WritePacket(ci CaptureInfo, data []byte) error {
	if err := w.WriteHeader(); err != nil {
		return err
	}
	if ci.CaptureLength == 0 {
		ci.CaptureLength = len(data)
	}
	if ci.Length == 0 {
		ci.Length = ci.CaptureLength
	}
	if ci.CaptureLength != len(data) {
		return fmt.Errorf("pcap: capture length %d != data length %d", ci.CaptureLength, len(data))
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ci.Timestamp.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ci.Timestamp.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(ci.CaptureLength))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(ci.Length))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing record body: %w", err)
	}
	return nil
}
