package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
)

// ErrNotReady is returned by a live Source when no packet is available
// yet: the caller should flush in-flight work and poll again shortly.
// It is a flow-control signal, not a failure.
var ErrNotReady = errors.New("stream: no packet available yet")

// Source yields decoded packets to the engine. Next returns io.EOF
// when the source is exhausted for good and ErrNotReady when a live
// source has nothing right now. Sources are used from a single
// goroutine (the engine's reader stage).
type Source interface {
	Next() (pcap.Packet, error)
	Close() error
}

// RawSource is the zero-copy fast path a Source may additionally
// implement: NextRaw returns the next capture record undecoded, read
// into scratch (grown as needed — same ownership contract as
// pcap.ReadPacketInto). Unlike Next it does NOT skip undecodable
// records; the engine routes every record to a shard whose worker
// performs the decode and skips failures there, which keeps the skip
// semantics identical to the decoded path while moving the L2-L4
// decode work off the reader goroutine.
type RawSource interface {
	Source
	NextRaw(scratch []byte) (data []byte, ci pcap.CaptureInfo, link pcap.LinkType, err error)
}

// nextDecoded is Source.Next for every RawSource in this package: read
// the next record into its own buffer and decode it, skipping records
// that fail link-layer decoding like the offline Analyzer.ReadPCAP.
func nextDecoded(src RawSource) (pcap.Packet, error) {
	for {
		data, ci, link, err := src.NextRaw(nil)
		if err != nil {
			return pcap.Packet{}, err
		}
		if pkt, err := pcap.DecodePacket(link, ci, data); err == nil {
			return pkt, nil
		}
	}
}

// PCAPSource reads a finished capture (classic pcap or pcapng) as
// fast as the engine consumes it.
type PCAPSource struct {
	pr pcap.PacketReader
}

// NewPCAPSource parses the capture header from r.
func NewPCAPSource(r io.Reader) (*PCAPSource, error) {
	pr, err := pcap.NewAutoReader(r)
	if err != nil {
		return nil, err
	}
	return &PCAPSource{pr: pr}, nil
}

// Next returns the next decodable packet.
func (s *PCAPSource) Next() (pcap.Packet, error) { return nextDecoded(s) }

// NextRaw implements RawSource: it returns the next record undecoded,
// read into scratch.
func (s *PCAPSource) NextRaw(scratch []byte) ([]byte, pcap.CaptureInfo, pcap.LinkType, error) {
	data, ci, err := s.pr.ReadPacketInto(scratch)
	if err != nil {
		if err == io.EOF {
			return nil, ci, s.pr.LinkType(), io.EOF
		}
		return nil, ci, s.pr.LinkType(), fmt.Errorf("stream: reading capture: %w", err)
	}
	return data, ci, s.pr.LinkType(), nil
}

// Close implements Source; the underlying reader is caller-owned.
func (s *PCAPSource) Close() error { return nil }

// FollowSource tails a growing classic-pcap file (`tail -f` for
// captures): it serves every complete record already on disk and
// returns ErrNotReady at the write frontier instead of tearing down.
// A record half-written by the capturing process is left untouched
// until the rest arrives, so the embedded reader never sees a short
// read.
type FollowSource struct {
	f       *os.File
	pending []byte // bytes read from the file, not yet fully consumed
	head    int    // consumed prefix of pending
	order   binary.ByteOrder
	pr      *pcap.Reader
}

// NewFollowSource opens path for tailing. The file may be empty or
// not yet have a complete header; parsing starts once enough bytes
// exist.
func NewFollowSource(path string) (*FollowSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &FollowSource{f: f}, nil
}

// Read serves the pcap.Reader from the buffered window. The framing
// check in Next guarantees the reader only asks for bytes that are
// already buffered.
func (s *FollowSource) Read(p []byte) (int, error) {
	if s.head >= len(s.pending) {
		return 0, io.EOF
	}
	n := copy(p, s.pending[s.head:])
	s.head += n
	return n, nil
}

// ReadByte marks the source as already buffered: pcap.NewReader wraps
// plain readers in a bufio.Reader, which would read ahead past the
// bytes the framing gate in nextRecord has admitted and desynchronise
// the window accounting. Serving byte reads directly keeps the reader
// unwrapped.
func (s *FollowSource) ReadByte() (byte, error) {
	if s.head >= len(s.pending) {
		return 0, io.EOF
	}
	b := s.pending[s.head]
	s.head++
	return b, nil
}

// followWindow is how far ahead of the parse position FollowSource
// reads: a few thousand records per read call, and the bound on what a
// tail holds of a file that already has content.
const followWindow = 256 << 10

// want makes n unconsumed bytes available, or reports ErrNotReady when
// the file does not hold them yet. It reads up to a window (or n, for a
// record larger than that) past the parse position; what it first moves
// to the front is less than the n being waited for.
func (s *FollowSource) want(n int) error {
	if s.avail() >= n {
		return nil
	}
	if s.head > 0 {
		s.pending = append(s.pending[:0], s.pending[s.head:]...)
		s.head = 0
	}
	target := max(n, followWindow)
	for len(s.pending) < target {
		// Grow by a window at a time: a corrupt header may declare far
		// more than the file will ever hold.
		s.pending = slices.Grow(s.pending, min(target-len(s.pending), followWindow))
		got, err := s.f.Read(s.pending[len(s.pending):min(cap(s.pending), target)])
		s.pending = s.pending[:len(s.pending)+got]
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if s.avail() < n {
		return ErrNotReady
	}
	return nil
}

func (s *FollowSource) avail() int { return len(s.pending) - s.head }

// nextRecord returns the next fully buffered record (read into
// scratch), ErrNotReady at the write frontier, and never io.EOF: a
// followed file has no end until the caller stops.
func (s *FollowSource) nextRecord(scratch []byte) ([]byte, pcap.CaptureInfo, error) {
	if s.pr == nil {
		if err := s.want(24); err != nil {
			return nil, pcap.CaptureInfo{}, err
		}
		switch binary.LittleEndian.Uint32(s.pending[s.head : s.head+4]) {
		case 0xa1b2c3d4, 0xa1b23c4d:
			s.order = binary.LittleEndian
		case 0xd4c3b2a1, 0x4d3cb2a1:
			s.order = binary.BigEndian
		default:
			return nil, pcap.CaptureInfo{}, fmt.Errorf("stream: %s is not a classic pcap file", s.f.Name())
		}
		pr, err := pcap.NewReader(s)
		if err != nil {
			return nil, pcap.CaptureInfo{}, err
		}
		s.pr = pr
	}
	// Gate ReadPacket on a fully buffered record: 16-byte record
	// header plus the captured length it declares.
	if err := s.want(16); err != nil {
		return nil, pcap.CaptureInfo{}, err
	}
	capLen := int(s.order.Uint32(s.pending[s.head+8 : s.head+12]))
	if err := s.want(16 + capLen); err != nil {
		return nil, pcap.CaptureInfo{}, err
	}
	return s.pr.ReadPacketInto(scratch)
}

// Next returns the next decodable packet, ErrNotReady at the write
// frontier, and never io.EOF.
func (s *FollowSource) Next() (pcap.Packet, error) { return nextDecoded(s) }

// NextRaw implements RawSource: the next fully buffered record,
// undecoded.
func (s *FollowSource) NextRaw(scratch []byte) ([]byte, pcap.CaptureInfo, pcap.LinkType, error) {
	data, ci, err := s.nextRecord(scratch)
	var link pcap.LinkType
	if s.pr != nil {
		link = s.pr.LinkType()
	}
	return data, ci, link, err
}

// Close releases the tailed file.
func (s *FollowSource) Close() error { return s.f.Close() }

// pacer releases timestamped records against the wall clock, scaled by
// speed: a record stamped Δt after the first is due Δt/speed after the
// first was asked for. speed <= 0 holds nothing back.
type pacer struct {
	speed   float64
	started time.Time
	base    time.Time
}

// due reports whether the record stamped ts may be released yet.
func (p *pacer) due(ts time.Time) bool {
	if p.speed <= 0 {
		return true
	}
	if p.started.IsZero() {
		p.started = time.Now()
		p.base = ts
	}
	return !time.Now().Before(p.started.Add(time.Duration(float64(ts.Sub(p.base)) / p.speed)))
}

// ReplaySource replays a finished capture against the wall clock,
// scaled by Speed (see pacer). It turns any recorded capture into a
// live feed for exercising the engine's follow machinery.
type ReplaySource struct {
	inner   Source
	pace    pacer
	pending *pcap.Packet
}

// NewReplaySource paces the packets of inner, which it owns: Close
// closes it. speed <= 0 means "as fast as possible".
func NewReplaySource(inner Source, speed float64) *ReplaySource {
	return &ReplaySource{inner: inner, pace: pacer{speed: speed}}
}

// Next returns the next packet once its scaled capture offset has
// elapsed, ErrNotReady before that, io.EOF at the end of the capture.
func (s *ReplaySource) Next() (pcap.Packet, error) {
	if s.pending == nil {
		pkt, err := s.inner.Next()
		if err != nil {
			return pcap.Packet{}, err
		}
		s.pending = &pkt
	}
	if !s.pace.due(s.pending.Info.Timestamp) {
		return pcap.Packet{}, ErrNotReady
	}
	pkt := *s.pending
	s.pending = nil
	return pkt, nil
}

// Close closes the wrapped source.
func (s *ReplaySource) Close() error { return s.inner.Close() }

// RecordSource feeds simulator records straight into the engine with
// no pcap round-trip: each record is serialized and decoded exactly
// like Trace.WritePCAP followed by Analyzer.ReadPCAP, so the streamed
// profile is comparable with the offline one. Speed works like
// ReplaySource's.
type RecordSource struct {
	recs []scadasim.Record
	i    int
	pace pacer
}

// NewRecordSource wraps a simulated trace's records. speed <= 0 means
// "as fast as possible".
func NewRecordSource(recs []scadasim.Record, speed float64) *RecordSource {
	return &RecordSource{recs: recs, pace: pacer{speed: speed}}
}

// Next serializes and decodes the next record.
func (s *RecordSource) Next() (pcap.Packet, error) {
	for {
		if s.i >= len(s.recs) {
			return pcap.Packet{}, io.EOF
		}
		r := &s.recs[s.i]
		if !s.pace.due(r.Time) {
			return pcap.Packet{}, ErrNotReady
		}
		s.i++
		frame, err := pcap.BuildTCPPacket(r.Src, r.Dst, pcap.TCP{
			Seq: r.Seq, Ack: r.Ack, Flags: r.Flags, Payload: r.Payload,
		})
		if err != nil {
			return pcap.Packet{}, err
		}
		// The pcap writer floors timestamps to microseconds; match it
		// so streamed and recorded profiles agree to the last bit.
		ts := r.Time.Truncate(time.Microsecond).UTC()
		ci := pcap.CaptureInfo{Timestamp: ts, CaptureLength: len(frame), Length: len(frame)}
		pkt, err := pcap.DecodePacket(pcap.LinkTypeEthernet, ci, frame)
		if err != nil {
			continue
		}
		return pkt, nil
	}
}

// Close implements Source.
func (s *RecordSource) Close() error { return nil }
