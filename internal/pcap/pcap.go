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

// Reader decodes a libpcap stream.
type Reader struct {
	r         io.Reader
	order     binary.ByteOrder
	nanos     bool
	linkType  LinkType
	snapLen   uint32
	recHdr    [16]byte
	packetNum int
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
	r = buffered(r)
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	pr := &Reader{r: r}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	switch magic {
	case magicMicros:
		pr.order = binary.LittleEndian
	case magicNanos:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicMicrosSwapped:
		pr.order = binary.BigEndian
	case magicNanosSwapped:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magic)
	}
	pr.snapLen = pr.order.Uint32(hdr[16:20])
	pr.linkType = LinkType(pr.order.Uint32(hdr[20:24]))
	return pr, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() LinkType { return r.linkType }

// SnapLen returns the capture's snapshot length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

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
	if _, err := io.ReadFull(r.r, r.recHdr[:]); err != nil {
		if err == io.EOF {
			return nil, CaptureInfo{}, io.EOF
		}
		return nil, CaptureInfo{}, fmt.Errorf("pcap: record %d header: %w", r.packetNum, err)
	}
	sec := r.order.Uint32(r.recHdr[0:4])
	frac := r.order.Uint32(r.recHdr[4:8])
	capLen := r.order.Uint32(r.recHdr[8:12])
	origLen := r.order.Uint32(r.recHdr[12:16])
	limit := r.snapLen
	if limit == 0 || limit > maxRecordLen {
		limit = maxRecordLen
	}
	if capLen > limit {
		return nil, CaptureInfo{}, fmt.Errorf("%w: %d > %d", ErrSnapLen, capLen, limit)
	}
	data := grow(scratch, int(capLen))
	if _, err := io.ReadFull(r.r, data); err != nil {
		return nil, CaptureInfo{}, fmt.Errorf("pcap: record %d body: %w", r.packetNum, err)
	}
	nanos := int64(frac) * 1000
	if r.nanos {
		nanos = int64(frac)
	}
	r.packetNum++
	return data, CaptureInfo{
		Timestamp:     time.Unix(int64(sec), nanos).UTC(),
		CaptureLength: int(capLen),
		Length:        int(origLen),
	}, nil
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
