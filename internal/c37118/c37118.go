// Package c37118 implements the parts of IEEE C37.118.2 (synchrophasor
// data transfer) that appear in the paper's capture: the tap between
// the substations and the SCADA servers also carried phasor
// measurement units reporting to the control centre ("our capture
// included other industrial protocols over TCP/IP such as ICCP and
// C37.118" — §5). The paper leaves their analysis to future work; here
// C37.118 is a first-class decoded dialect: the package registers a
// protocol.Dialect whose sessions frame the stream, tokenise every
// frame for the Markov profiles, turn data frames into frequency,
// ROCOF and phasor-magnitude points for the physical store, and judge
// each stream's data rate against its configuration. The same codec
// synthesizes the PMU traffic of the generated captures.
//
// Implemented: configuration-2 and data frames with 16-bit integer
// phasors, frequency/ROCOF words and the CRC-CCITT trailer. Command
// and header frames are framed but carry opaque bodies.
//
// A data frame has no self-describing structure: its shape is whatever
// the stream's last configuration frame declared. An accepted
// configuration is therefore compiled once into a layout (per PMU:
// point-address base, phasor count, nominal frequency, conversion
// factor; total body length), and every data frame — in a session and
// in ParseData alike — is decoded by walking that layout.
package c37118

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"uncharted/internal/protocol"
)

// SyncByte opens every C37.118 frame.
const SyncByte = 0xAA

// FrameType distinguishes the five frame types.
type FrameType uint8

// Frame types (SYNC bits 6-4).
const (
	FrameData    FrameType = 0
	FrameHeader  FrameType = 1
	FrameConfig1 FrameType = 2
	FrameConfig2 FrameType = 3
	FrameCommand FrameType = 4
)

func (t FrameType) String() string {
	switch t {
	case FrameData:
		return "data"
	case FrameHeader:
		return "header"
	case FrameConfig1:
		return "cfg-1"
	case FrameConfig2:
		return "cfg-2"
	case FrameCommand:
		return "command"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Errors.
var (
	ErrShortFrame = errors.New("c37118: truncated frame")
	ErrBadSync    = errors.New("c37118: bad sync byte")
	ErrBadCRC     = errors.New("c37118: CRC mismatch")
	ErrBadSize    = errors.New("c37118: frame size field out of range")
	// ErrWrongType rejects a valid frame handed to the parser of another
	// frame type (a data frame to ParseConfig, a config to ParseData).
	ErrWrongType = errors.New("c37118: unexpected frame type")
)

// Phasor is one phasor channel value.
type Phasor struct {
	Name      string
	Magnitude float64 // engineering units after scaling
	AngleRad  float64
}

// PMUConfig describes one PMU inside a configuration frame.
type PMUConfig struct {
	StationName string // up to 16 bytes
	IDCode      uint16
	// PhasorNames names the phasor channels.
	PhasorNames []string
	// NominalFreq is 50 or 60.
	NominalFreq uint16
	// ConversionFactor scales the 16-bit integer magnitude to
	// engineering units (volts/amps * 1e-5 per the standard; kept as
	// a plain multiplier here).
	ConversionFactor float64
}

// Config is a configuration-2 frame.
type Config struct {
	IDCode   uint16
	Time     time.Time
	TimeBase uint32
	PMUs     []PMUConfig
	DataRate int16 // frames per second (negative: seconds per frame)
}

// PMUData is one PMU's payload inside a data frame.
type PMUData struct {
	Stat    uint16
	Phasors []Phasor
	Freq    float64 // Hz
	ROCOF   float64 // Hz/s
}

// Data is a data frame.
type Data struct {
	IDCode uint16
	Time   time.Time
	PMUs   []PMUData
}

// crcTable holds the CRC-CCITT remainder of every byte value.
var crcTable = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// crcSlices extends crcTable to four bytes a step: crcSlices[k][i] is the
// remainder of byte i followed by k zero bytes.
var crcSlices = func() (t [4][256]uint16) {
	t[0] = crcTable
	for k := 0; k < 3; k++ {
		for i, r := range t[k] {
			t[k+1][i] = r<<8 ^ crcTable[r>>8]
		}
	}
	return t
}()

// crcCCITT computes the CRC-CCITT (0xFFFF seed, polynomial 0x1021)
// used by the standard's CHK field, four bytes a step: the two
// register bytes fold into the first two data bytes, and each of the
// four is carried past the bytes behind it by its own table.
func crcCCITT(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for ; len(data) >= 4; data = data[4:] {
		crc = crcSlices[3][byte(crc>>8)^data[0]] ^ crcSlices[2][byte(crc)^data[1]] ^
			crcSlices[1][data[2]] ^ crcSlices[0][data[3]]
	}
	for _, b := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// header renders SYNC..FRACSEC (14 bytes) into dst.
func putHeader(dst []byte, t FrameType, frameSize int, idCode uint16, at time.Time) {
	dst[0] = SyncByte
	dst[1] = byte(t)<<4 | 0x01 // version 1
	binary.BigEndian.PutUint16(dst[2:4], uint16(frameSize))
	binary.BigEndian.PutUint16(dst[4:6], idCode)
	binary.BigEndian.PutUint32(dst[6:10], uint32(at.Unix()))
	// FRACSEC: fraction of second over a 1e6 time base, no quality
	// flags.
	frac := uint32(at.Nanosecond() / 1000)
	binary.BigEndian.PutUint32(dst[10:14], frac&0x00FFFFFF)
}

// FrameInfo is the decoded common header of any frame.
type FrameInfo struct {
	Type      FrameType
	FrameSize int
	IDCode    uint16
	Time      time.Time
}

// PeekFrame decodes the common header without validating the CRC; it
// reports how many bytes the whole frame occupies, for stream framing.
func PeekFrame(b []byte) (FrameInfo, error) {
	if len(b) < 14 {
		return FrameInfo{}, ErrShortFrame
	}
	if b[0] != SyncByte {
		return FrameInfo{}, ErrBadSync
	}
	size := int(binary.BigEndian.Uint16(b[2:4]))
	if size < 16 {
		return FrameInfo{}, ErrBadSize
	}
	sec := int64(binary.BigEndian.Uint32(b[6:10]))
	frac := binary.BigEndian.Uint32(b[10:14]) & 0x00FFFFFF
	return FrameInfo{
		Type:      FrameType(b[1] >> 4 & 0x07),
		FrameSize: size,
		IDCode:    binary.BigEndian.Uint16(b[4:6]),
		Time:      time.Unix(sec, int64(frac)*1000).UTC(),
	}, nil
}

// checkFrame validates length and CRC, returning the body (after the
// 14-byte header, before the 2-byte CHK).
func checkFrame(b []byte) (FrameInfo, []byte, error) {
	info, err := PeekFrame(b)
	if err != nil {
		return info, nil, err
	}
	if len(b) < info.FrameSize {
		return info, nil, ErrShortFrame
	}
	frame := b[:info.FrameSize]
	want := binary.BigEndian.Uint16(frame[info.FrameSize-2:])
	if crcCCITT(frame[:info.FrameSize-2]) != want {
		return info, nil, ErrBadCRC
	}
	return info, frame[14 : info.FrameSize-2], nil
}

// MarshalConfig renders a configuration-2 frame.
func (c *Config) Marshal() ([]byte, error) {
	if len(c.PMUs) == 0 {
		return nil, errors.New("c37118: config frame needs at least one PMU")
	}
	body := make([]byte, 0, 128)
	var u16 [2]byte
	var u32 [4]byte
	app16 := func(v uint16) {
		binary.BigEndian.PutUint16(u16[:], v)
		body = append(body, u16[:]...)
	}
	app32 := func(v uint32) {
		binary.BigEndian.PutUint32(u32[:], v)
		body = append(body, u32[:]...)
	}
	tb := c.TimeBase
	if tb == 0 {
		tb = 1_000_000
	}
	app32(tb)
	app16(uint16(len(c.PMUs)))
	for _, p := range c.PMUs {
		body = append(body, padName(p.StationName, 16)...)
		app16(p.IDCode)
		app16(0) // FORMAT: 16-bit integer phasors, polar? bit0=0 rectangular; use 0
		app16(uint16(len(p.PhasorNames)))
		app16(0) // analogs
		app16(0) // digital words
		for _, n := range p.PhasorNames {
			body = append(body, padName(n, 16)...)
		}
		// PHUNIT conversion factors: flag byte + 24-bit factor.
		for range p.PhasorNames {
			factor := uint32(p.ConversionFactor * 1e5)
			if factor == 0 {
				factor = 1
			}
			app32(factor & 0x00FFFFFF)
		}
		fnom := uint16(0)
		if p.NominalFreq == 50 {
			fnom = 1
		}
		app16(fnom)
		app16(1) // CFGCNT
	}
	app16(uint16(c.DataRate))

	size := 14 + len(body) + 2
	out := make([]byte, size)
	putHeader(out, FrameConfig2, size, c.IDCode, c.Time)
	copy(out[14:], body)
	binary.BigEndian.PutUint16(out[size-2:], crcCCITT(out[:size-2]))
	return out, nil
}

// ParseConfig decodes a configuration-2 frame.
func ParseConfig(b []byte) (*Config, error) {
	info, body, err := checkFrame(b)
	if err != nil {
		return nil, err
	}
	return parseConfigBody(info, body)
}

// parseConfigBody decodes the body of an already validated frame.
func parseConfigBody(info FrameInfo, body []byte) (*Config, error) {
	if info.Type != FrameConfig2 && info.Type != FrameConfig1 {
		return nil, ErrWrongType
	}
	c := &Config{IDCode: info.IDCode, Time: info.Time}
	if len(body) < 6 {
		return nil, ErrShortFrame
	}
	c.TimeBase = binary.BigEndian.Uint32(body[0:4])
	numPMU := int(binary.BigEndian.Uint16(body[4:6]))
	off := 6
	for i := 0; i < numPMU; i++ {
		if len(body) < off+26 {
			return nil, ErrShortFrame
		}
		var p PMUConfig
		p.StationName = trimName(body[off : off+16])
		p.IDCode = binary.BigEndian.Uint16(body[off+16 : off+18])
		// FORMAT skipped (we emit integer rectangular only).
		phnmr := int(binary.BigEndian.Uint16(body[off+20 : off+22]))
		annmr := int(binary.BigEndian.Uint16(body[off+22 : off+24]))
		dgnmr := int(binary.BigEndian.Uint16(body[off+24 : off+26]))
		off += 26
		need := phnmr*16 + annmr*16 + dgnmr*16*16
		if len(body) < off+need {
			return nil, ErrShortFrame
		}
		for j := 0; j < phnmr; j++ {
			p.PhasorNames = append(p.PhasorNames, trimName(body[off:off+16]))
			off += 16
		}
		off += annmr*16 + dgnmr*16*16
		// Unit words.
		unitWords := phnmr + annmr + dgnmr
		if len(body) < off+unitWords*4+4 {
			return nil, ErrShortFrame
		}
		if phnmr > 0 {
			factor := binary.BigEndian.Uint32(body[off:off+4]) & 0x00FFFFFF
			p.ConversionFactor = float64(factor) / 1e5
		}
		off += unitWords * 4
		fnom := binary.BigEndian.Uint16(body[off : off+2])
		p.NominalFreq = 60
		if fnom&1 == 1 {
			p.NominalFreq = 50
		}
		off += 4 // FNOM + CFGCNT
		c.PMUs = append(c.PMUs, p)
	}
	if len(body) < off+2 {
		return nil, ErrShortFrame
	}
	c.DataRate = int16(binary.BigEndian.Uint16(body[off : off+2]))
	return c, nil
}

// MarshalData renders a data frame laid out per cfg.
func (d *Data) Marshal(cfg *Config) ([]byte, error) {
	if len(d.PMUs) != len(cfg.PMUs) {
		return nil, fmt.Errorf("c37118: %d PMU payloads for %d configured PMUs", len(d.PMUs), len(cfg.PMUs))
	}
	body := make([]byte, 0, 64)
	var u16 [2]byte
	app16 := func(v uint16) {
		binary.BigEndian.PutUint16(u16[:], v)
		body = append(body, u16[:]...)
	}
	for i, pd := range d.PMUs {
		pc := cfg.PMUs[i]
		if len(pd.Phasors) != len(pc.PhasorNames) {
			return nil, fmt.Errorf("c37118: PMU %d has %d phasors, config says %d",
				i, len(pd.Phasors), len(pc.PhasorNames))
		}
		app16(pd.Stat)
		for _, ph := range pd.Phasors {
			mag := ph.Magnitude / cfgFactor(pc)
			re := mag * math.Cos(ph.AngleRad)
			im := mag * math.Sin(ph.AngleRad)
			app16(uint16(int16(clamp16(re))))
			app16(uint16(int16(clamp16(im))))
		}
		// FREQ: deviation from nominal in mHz; DFREQ: ROCOF in
		// hundredths of Hz/s.
		app16(uint16(int16((pd.Freq - float64(pc.NominalFreq)) * 1000)))
		app16(uint16(int16(pd.ROCOF * 100)))
	}
	size := 14 + len(body) + 2
	out := make([]byte, size)
	putHeader(out, FrameData, size, d.IDCode, d.Time)
	copy(out[14:], body)
	binary.BigEndian.PutUint16(out[size-2:], crcCCITT(out[:size-2]))
	return out, nil
}

// pmuLayout is one PMU's slice of a data frame, reduced to what
// decoding needs.
type pmuLayout struct {
	// base is the PMU's point-address base. Point addresses pack the PMU
	// IDCode with a channel slot: 1 = frequency, 2 = ROCOF, 16+i =
	// phasor i magnitude.
	base    uint32
	phasors int
	nominal float64 // Hz
	factor  float64
}

// layout is a configuration compiled for data-frame decoding.
type layout struct {
	pmus []pmuLayout
	// bodyLen is the byte length of the data-frame body the
	// configuration describes.
	bodyLen int
}

func compileLayout(cfg *Config) layout {
	l := layout{pmus: make([]pmuLayout, len(cfg.PMUs))}
	for i, pc := range cfg.PMUs {
		l.pmus[i] = pmuLayout{
			base:    uint32(pc.IDCode) << 8,
			phasors: len(pc.PhasorNames),
			nominal: float64(pc.NominalFreq),
			factor:  cfgFactor(pc),
		}
		l.bodyLen += 2 + len(pc.PhasorNames)*4 + 4
	}
	return l
}

// decode walks a validated data-frame body, appending each PMU's
// frequency, ROCOF and phasor-magnitude points (stamped t) to pts. With
// d non-nil it also fills d.PMUs with the structured form, including
// the phasor angles and status words no point carries.
func (l *layout) decode(body []byte, t time.Time, pts []protocol.Point, d *Data) ([]protocol.Point, error) {
	if len(body) < l.bodyLen {
		return pts, ErrShortFrame
	}
	off := 0
	for i := range l.pmus {
		p := &l.pmus[i]
		tail := off + 2 + p.phasors*4
		freqDev := float64(int16(binary.BigEndian.Uint16(body[tail:])))
		rocof := float64(int16(binary.BigEndian.Uint16(body[tail+2:])))
		freq := p.nominal + freqDev/1000
		rocof /= 100
		pts = append(pts,
			protocol.Point{IOA: p.base | 1, Code: protocol.C37PointFreq, T: t, V: freq},
			protocol.Point{IOA: p.base | 2, Code: protocol.C37PointROCOF, T: t, V: rocof},
		)
		var pd *PMUData
		if d != nil {
			d.PMUs = append(d.PMUs, PMUData{
				Stat:  binary.BigEndian.Uint16(body[off:]),
				Freq:  freq,
				ROCOF: rocof,
			})
			pd = &d.PMUs[len(d.PMUs)-1]
		}
		off += 2
		for j := 0; j < p.phasors; j++ {
			re := float64(int16(binary.BigEndian.Uint16(body[off:])))
			im := float64(int16(binary.BigEndian.Uint16(body[off+2:])))
			off += 4
			mag := math.Hypot(re, im) * p.factor
			pts = append(pts, protocol.Point{
				IOA: p.base | uint32(16+j), Code: protocol.C37PointPhasor, T: t, V: mag,
			})
			if pd != nil {
				pd.Phasors = append(pd.Phasors, Phasor{Magnitude: mag, AngleRad: math.Atan2(im, re)})
			}
		}
		off = tail + 4
	}
	return pts, nil
}

// ParseData decodes a data frame using its configuration.
func ParseData(b []byte, cfg *Config) (*Data, error) {
	info, body, err := checkFrame(b)
	if err != nil {
		return nil, err
	}
	if info.Type != FrameData {
		return nil, ErrWrongType
	}
	d := &Data{IDCode: info.IDCode, Time: info.Time}
	l := compileLayout(cfg)
	if _, err := l.decode(body, info.Time, nil, d); err != nil {
		return nil, err
	}
	for i, pc := range cfg.PMUs {
		for j, name := range pc.PhasorNames {
			d.PMUs[i].Phasors[j].Name = name
		}
	}
	return d, nil
}

func cfgFactor(pc PMUConfig) float64 {
	if pc.ConversionFactor <= 0 {
		return 1
	}
	return pc.ConversionFactor
}

func clamp16(f float64) float64 {
	if f > 32767 {
		return 32767
	}
	if f < -32768 {
		return -32768
	}
	return f
}

func padName(s string, n int) []byte {
	out := make([]byte, n)
	copy(out, s)
	for i := len(s); i < n; i++ {
		out[i] = ' '
	}
	return out
}

func trimName(b []byte) string {
	end := len(b)
	for end > 0 && (b[end-1] == ' ' || b[end-1] == 0) {
		end--
	}
	return string(b[:end])
}
