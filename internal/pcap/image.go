package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
)

// input is where a reader's bytes come from: a stream, read into the
// reader's buffers, or an image — a whole capture in memory, such as a
// read-only file mapping — sliced where the bytes lie. Both readers
// parse through it, so a record reads, and fails, the same either way.
type input struct {
	r   io.Reader // the stream; nil for an image
	img []byte
	// pos is the offset in the capture of the next unread byte, so that
	// a segment's reader names the offsets a whole-capture reader would;
	// end bounds an image reader's range.
	pos, end int
}

// take consumes the next n bytes: read into *buf (grown as needed)
// from a stream, in place from an image, capped so an append cannot
// write into it. A short input fails as io.ReadFull does: io.EOF when
// nothing was left, io.ErrUnexpectedEOF when part of the n bytes was.
func (in *input) take(n int, buf *[]byte) ([]byte, error) {
	if in.r != nil {
		*buf = grow(*buf, n)
		got, err := io.ReadFull(in.r, *buf)
		in.pos += got
		return *buf, err
	}
	if left := in.end - in.pos; left < n {
		in.pos = in.end
		if left == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	in.pos += n
	return in.img[in.pos-n : in.pos : in.pos], nil
}

// takeBody is take for the bytes a record or block header has
// promised: none left there is a capture cut short, so it fails with
// io.ErrUnexpectedEOF, never with the io.EOF of a clean end.
func (in *input) takeBody(n int, buf *[]byte) ([]byte, error) {
	b, err := in.take(n, buf)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// Layout reads a record of an image again from where its header
// starts, knowing what the reader knew when it passed the record: the
// file header, or the byte order and interfaces of the pcapng section.
// A reader hands out a new Layout only at a pcapng section header or
// interface description; each may be used from any goroutine.
type Layout struct {
	classic fileHeader
	ng      ngState // order is nil for a classic capture
}

// Record returns the bytes [off, end) and the CaptureInfo of the record
// NextAt reported at hdr with this Layout, in the same unchanged image.
func (l *Layout) Record(img []byte, hdr int) (off, end int, ci CaptureInfo) {
	if l.ng.order == nil {
		ci := l.classic.record(img[hdr : hdr+16])
		return hdr + 16, hdr + 16 + ci.CaptureLength, ci
	}
	body := img[hdr+8 : hdr+int(l.ng.order.Uint32(img[hdr+4:]))-4]
	var lo, hi int
	if l.ng.order.Uint32(img[hdr:]) == blockEPB {
		lo, hi, ci, _ = l.ng.parseEPB(body)
	} else {
		lo, hi, ci, _ = l.ng.parseSPB(body)
	}
	return hdr + 8 + lo, hdr + 8 + hi, ci
}

// NewImageReader is NewAutoReader over a capture held whole in memory,
// which must stay unchanged while the reader is in use. ReadPacketInto
// copies each record out; NextAt, which both of its reader types have,
// reports where the record lies in img instead.
func NewImageReader(img []byte) (PacketReader, error) {
	if len(img) < 4 {
		return nil, fmt.Errorf("pcap: sniffing capture format: %w", io.ErrUnexpectedEOF)
	}
	in := input{img: img, end: len(img)}
	if binary.BigEndian.Uint32(img) == blockSHB {
		return newNgReader(in)
	}
	return newReader(in)
}
