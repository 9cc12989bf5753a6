package c37118

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"uncharted/internal/protocol"
)

// Port is the registered TCP port for C37.118 data transfer.
const Port = 4712

// NextFrame extracts one C37.118 frame from the front of buf,
// resynchronising on the 0xAA sync byte. A sync byte followed by an
// implausible header (reserved frame type or a size below the minimum)
// is treated as a false sync and skipped. skipped reports the garbage
// byte count; ok=false means more bytes are needed.
func NextFrame(buf []byte) (frame, rest []byte, skipped int, ok bool) {
	skipped = 0
	for {
		i := bytes.IndexByte(buf, SyncByte)
		if i < 0 {
			i = len(buf)
		}
		skipped += i
		buf = buf[i:]
		if len(buf) < 4 {
			return nil, buf, skipped, false
		}
		size := int(buf[2])<<8 | int(buf[3])
		if FrameType(buf[1]>>4&0x07) > FrameCommand || size < 16 {
			// False sync: skip the 0xAA and rescan.
			buf = buf[1:]
			skipped++
			continue
		}
		if len(buf) < size {
			return nil, buf, skipped, false
		}
		return buf[:size], buf[size:], skipped, true
	}
}

// RateHz converts the DATA_RATE field to frames per second: positive
// values are fps, negative values are seconds per frame.
func RateHz(r int16) float64 {
	switch {
	case r > 0:
		return float64(r)
	case r < 0:
		return -1.0 / float64(r)
	}
	return 0
}

// dialect implements protocol.Dialect for IEEE C37.118.
type dialect struct{}

func (dialect) ID() protocol.ID { return protocol.C37118 }
func (dialect) Name() string    { return "c37118" }
func (dialect) Port() uint16    { return Port }
func (dialect) NewSession() protocol.Session {
	return &session{streams: make(map[uint16]*streamStat)}
}

// StationInitiates: PMUs dial out and stream to a listening collector,
// the inverse of the IEC 104 / Modbus server model.
func (dialect) StationInitiates() bool { return true }

// Sniff accepts a plausible frame head: sync byte, a defined frame
// type, and a size of at least the empty-frame minimum.
func (dialect) Sniff(b []byte) bool {
	if len(b) < 4 || b[0] != SyncByte {
		return false
	}
	size := int(b[2])<<8 | int(b[3])
	return FrameType(b[1]>>4&0x07) <= FrameCommand && size >= 16
}

// streamStat tracks one synchrophasor stream (one IDCode) inside a
// flow: its latest configuration and the observed data-frame cadence,
// measured on the frames' own GPS timestamps so capture jitter cannot
// fail a healthy stream.
type streamStat struct {
	cfg *Config
	// lay is cfg compiled for data-frame decoding, rebuilt whenever a
	// new configuration frame replaces cfg.
	lay         layout
	dataFrames  int
	errors      int
	first, last time.Time
}

// session is the per-flow protocol.Session. Configuration frames are
// tracked per stream IDCode, so data frames decode into measurements
// once their stream's config-2 frame has passed the tap.
type session struct {
	streams map[uint16]*streamStat
	order   []uint16
	pts     []protocol.Point
}

func (s *session) stream(id uint16) *streamStat {
	st, ok := s.streams[id]
	if !ok {
		st = &streamStat{}
		s.streams[id] = st
		s.order = append(s.order, id)
	}
	return st
}

func (s *session) Next(buf []byte, fromStation bool) (protocol.Event, []byte, int, bool) {
	frame, rest, skipped, ok := NextFrame(buf)
	if !ok {
		return protocol.Event{}, rest, skipped, false
	}
	info, body, err := checkFrame(frame)
	if err != nil {
		// The IDCode of a frame that failed its CRC is as untrustworthy
		// as the rest of it: charge a stream that already exists, never
		// mint one from damaged bytes.
		if st, ok := s.streams[info.IDCode]; ok {
			st.errors++
		}
		return protocol.Event{Err: err}, rest, skipped, true
	}
	// Token kinds mirror FrameType values (pinned by test).
	ev := protocol.Event{Token: protocol.Token{Proto: protocol.C37118, Kind: uint8(info.Type)}}
	switch info.Type {
	case FrameConfig1, FrameConfig2:
		st := s.stream(info.IDCode)
		cfg, err := parseConfigBody(info, body)
		if err != nil {
			st.errors++
			return protocol.Event{Err: err}, rest, skipped, true
		}
		st.cfg, st.lay = cfg, compileLayout(cfg)
	case FrameData:
		st := s.stream(info.IDCode)
		st.dataFrames++
		if st.first.IsZero() {
			st.first = info.Time
		}
		st.last = info.Time
		if st.cfg == nil {
			break // no measurements until the config frame passes
		}
		s.pts, err = st.lay.decode(body, info.Time, s.pts[:0], nil)
		if err != nil {
			st.errors++
			return protocol.Event{Err: err}, rest, skipped, true
		}
		ev.Points = s.pts
	}
	return ev, rest, skipped, true
}

// Compliance reports data-rate conformance per synchrophasor stream:
// the observed data-frame rate must stay within 10% of the rate the
// stream's configuration frame declares.
func (s *session) Compliance() []protocol.StreamCompliance {
	var out []protocol.StreamCompliance
	for _, id := range s.order {
		st := s.streams[id]
		sc := protocol.StreamCompliance{
			Proto:  protocol.C37118,
			Unit:   fmt.Sprintf("pmu-%d", id),
			Frames: st.dataFrames,
			Errors: st.errors,
		}
		if st.cfg != nil {
			sc.ConfiguredRate = RateHz(st.cfg.DataRate)
		}
		if span := st.last.Sub(st.first); span > 0 && st.dataFrames > 1 {
			sc.ObservedRate = float64(st.dataFrames-1) / span.Seconds()
		}
		switch {
		case st.cfg == nil:
			sc.Detail = "no configuration frame observed"
		case sc.ConfiguredRate == 0:
			sc.Detail = "configuration declares no data rate"
		case sc.ObservedRate == 0:
			sc.Detail = "too few data frames to estimate rate"
		default:
			dev := (sc.ObservedRate - sc.ConfiguredRate) / sc.ConfiguredRate
			sc.Compliant = math.Abs(dev) <= 0.1
			sc.Detail = fmt.Sprintf("observed %.2f fps vs configured %.2f fps (%+.1f%%)",
				sc.ObservedRate, sc.ConfiguredRate, dev*100)
		}
		out = append(out, sc)
	}
	return out
}

func init() { protocol.Register(dialect{}) }
