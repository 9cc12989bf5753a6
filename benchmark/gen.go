package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"sort"
	"time"

	"uncharted/internal/c37118"
	"uncharted/internal/modbus"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// Capture kinds. y1 is the paper's own traffic (scadasim's Y1 campaign,
// ~99 % IEC 104); pmu_mix overlays benchmark-owned synchrophasor and
// Modbus traffic on a shorter Y1 campaign so the other two dialect
// codecs and content detection carry the decode load instead.
const (
	kindY1     = "y1"
	kindPMUMix = "pmu_mix"
)

// The pmu_mix overlay. Stream and association counts and their rates
// are constants: the seed moves values and sub-interval jitter only,
// never how many frames exist.
const (
	pmuStreams   = 6
	pmuFPS       = 12
	modbusAssocs = 10
	modbusPollHz = 2
	// Every second stream and association runs on a port no dialect
	// registers, so auto mode has to claim it by content sniffing.
	pmuAltPort    = 4722
	modbusPort    = 502
	modbusAltPort = 1502
)

// Address blocks of the overlay's devices.
var (
	pmuNet    = netip.MustParsePrefix("10.0.7.0/24")
	modbusNet = netip.MustParsePrefix("10.0.8.0/24")
)

// shape is what a capture must look like whatever the seed: every
// count has to land within shapeTolerance of these constants or the
// run is reported incorrect.
type shape struct {
	Packets      int `json:"packets"`
	Bytes        int `json:"bytes"`
	C37Frames    int `json:"c37118_frames"`
	ModbusFrames int `json:"modbus_frames"`
}

// shapeTolerance is relative; shapeSlack is the absolute floor under it,
// so a stream that is 1 % of the capture (y1's own 1 fps PMU) is not
// held to ±24 frames while retransmission draws alone move it by ±10.
const (
	shapeTolerance = 0.01
	shapeSlack     = 60
)

// captureSpec names one generated input. SimPackets cuts the simulated
// campaign at an exact packet count (scadasim's own retransmission and
// reconnect draws move its total by ±0.5 % with the seed; the cut sits
// six standard deviations under the mean); the overlay is added whole,
// so the capture's packet count — and with it attempted — never depends
// on the seed.
type captureSpec struct {
	Kind       string
	Duration   time.Duration // simulated time before the cut
	SimPackets int
	Want       shape
}

// capture is one generated input on disk, plus its image in memory
// (the reference kernel walks the same bytes the system ingests).
type capture struct {
	spec captureSpec
	path string
	data []byte
	got  shape
	// generated is how many packets the simulator produced before the cut.
	generated int
}

func (c *capture) mb() float64 { return float64(len(c.data)) / 1e6 }

func (c *capture) packets() int { return c.got.Packets }

// checkShape reports every count that strays from the spec.
func (c *capture) checkShape() error {
	if c.spec.Want == (shape{}) {
		return nil // a scaled-down capture has no recorded shape
	}
	var bad []string
	check := func(name string, got, want int) {
		if math.Abs(float64(got-want)) > max(shapeTolerance*float64(want), shapeSlack) {
			bad = append(bad, fmt.Sprintf("%s %d (want %d ±%.0f%%)", name, got, want, shapeTolerance*100))
		}
	}
	if c.got.Packets != c.spec.Want.Packets {
		bad = append(bad, fmt.Sprintf("packets %d (want exactly %d)", c.got.Packets, c.spec.Want.Packets))
	}
	check("bytes", c.got.Bytes, c.spec.Want.Bytes)
	check("c37118 frames", c.got.C37Frames, c.spec.Want.C37Frames)
	check("modbus frames", c.got.ModbusFrames, c.spec.Want.ModbusFrames)
	if bad != nil {
		return fmt.Errorf("capture %s shape: %v", c.spec.Kind, bad)
	}
	return nil
}

// generate synthesizes spec with the given seed and writes it to path.
func generate(spec captureSpec, seed int64, path string) (*capture, error) {
	cfg := scadasim.DefaultConfig(topology.Y1, seed)
	cfg.Duration = spec.Duration
	if cfg.CyclePeriod > cfg.Duration/3 {
		cfg.CyclePeriod = cfg.Duration / 3
	}
	sim, err := scadasim.New(cfg)
	if err != nil {
		return nil, err
	}
	tr, err := sim.Run()
	if err != nil {
		return nil, err
	}
	c := &capture{spec: spec, path: path, generated: len(tr.Records)}
	if len(tr.Records) < spec.SimPackets {
		return nil, fmt.Errorf("capture %s seed %d: simulated %d packets, need %d", spec.Kind, seed, len(tr.Records), spec.SimPackets)
	}
	tr.Records = tr.Records[:spec.SimPackets]
	if spec.Kind == kindPMUMix {
		end := cfg.Start.Add(cfg.Duration)
		collector := sim.Network().ServerAddr("C3")
		master := sim.Network().ServerAddr("C2")
		for i := 0; i < pmuStreams; i++ {
			tr.Records = append(tr.Records, pmuStream(i, seed, cfg.Start, end, collector)...)
		}
		for i := 0; i < modbusAssocs; i++ {
			tr.Records = append(tr.Records, modbusAssoc(i, seed, cfg.Start, end, master)...)
		}
		sortRecords(tr.Records)
	}
	c.got.Packets = len(tr.Records)
	for _, r := range tr.Records {
		if len(r.Payload) == 0 {
			continue
		}
		switch {
		case r.Dst.Port() == c37118.Port || pmuNet.Contains(r.Src.Addr()):
			c.got.C37Frames++
		case modbusNet.Contains(r.Src.Addr()) || modbusNet.Contains(r.Dst.Addr()):
			c.got.ModbusFrames++
		}
	}
	var buf bytes.Buffer
	buf.Grow(len(tr.Records) * 128)
	if err := tr.WritePCAP(&buf); err != nil {
		return nil, err
	}
	c.data = buf.Bytes()
	c.got.Bytes = len(c.data)
	if err := os.WriteFile(path, c.data, 0o644); err != nil {
		return nil, err
	}
	return c, nil
}

// sortRecords is scadasim's capture order: time, then source endpoint.
func sortRecords(rs []scadasim.Record) {
	sort.SliceStable(rs, func(i, j int) bool {
		if !rs[i].Time.Equal(rs[j].Time) {
			return rs[i].Time.Before(rs[j].Time)
		}
		if c := rs[i].Src.Addr().Compare(rs[j].Src.Addr()); c != 0 {
			return c < 0
		}
		return rs[i].Src.Port() < rs[j].Src.Port()
	})
}

// tcpStream books the segments of one established TCP connection.
type tcpStream struct {
	client, server       netip.AddrPort
	clientSeq, serverSeq uint32
	recs                 []scadasim.Record
}

func (s *tcpStream) emit(t time.Time, fromClient bool, payload []byte) {
	r := scadasim.Record{Time: t, Flags: pcap.FlagPSH | pcap.FlagACK, Payload: payload}
	if fromClient {
		r.Src, r.Dst, r.Seq, r.Ack = s.client, s.server, s.clientSeq, s.serverSeq
		s.clientSeq += uint32(len(payload))
	} else {
		r.Src, r.Dst, r.Seq, r.Ack = s.server, s.client, s.serverSeq, s.clientSeq
		s.serverSeq += uint32(len(payload))
	}
	s.recs = append(s.recs, r)
}

// pmuStream is one PMU gateway (two PMUs, five phasors) streaming
// C37.118 to the collector at pmuFPS: a CFG-2 frame, then data frames
// on the nominal grid. The seed sets amplitudes, phases and the
// capture-side jitter; the frame count depends on the duration alone.
func pmuStream(i int, seed int64, start, end time.Time, collector netip.Addr) []scadasim.Record {
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	id := uint16(1000 + 10*i)
	cfg := &c37118.Config{
		IDCode: id,
		Time:   start,
		PMUs: []c37118.PMUConfig{
			{StationName: fmt.Sprintf("PMU-%dA", i), IDCode: id + 1, PhasorNames: []string{"VA", "VB", "IA"},
				NominalFreq: 60, ConversionFactor: 0.01},
			{StationName: fmt.Sprintf("PMU-%dB", i), IDCode: id + 2, PhasorNames: []string{"VA", "IA"},
				NominalFreq: 60, ConversionFactor: 0.01},
		},
		DataRate: pmuFPS,
	}
	s := &tcpStream{
		client:    netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 7, byte(1 + i)}), uint16(41000+i)),
		server:    netip.AddrPortFrom(collector, [2]uint16{c37118.Port, pmuAltPort}[i%2]),
		clientSeq: 1000 + uint32(i),
		serverSeq: 2000 + uint32(i),
	}
	frame, err := cfg.Marshal()
	if err != nil {
		panic("benchmark: " + err.Error()) // literals above are valid
	}
	s.emit(start.Add(100*time.Millisecond+time.Duration(i)*time.Millisecond), true, frame)

	volts := 130 + 5*rng.Float64()
	amps := 38 + 6*rng.Float64()
	phase0 := 2 * math.Pi * rng.Float64()
	interval := time.Second / pmuFPS
	frames := 0
	for t := start.Add(time.Second); t.Before(end); t = t.Add(interval) {
		phase := phase0 + float64(frames)/400
		d := &c37118.Data{IDCode: id, Time: t, PMUs: []c37118.PMUData{
			{
				Phasors: []c37118.Phasor{
					{Name: "VA", Magnitude: volts + 0.3*math.Sin(phase), AngleRad: 0.1},
					{Name: "VB", Magnitude: volts - 0.3 + 0.3*math.Sin(phase+2), AngleRad: -2.0},
					{Name: "IA", Magnitude: amps + 2*math.Sin(phase/3), AngleRad: 0.3},
				},
				Freq: 60 + 0.01*math.Sin(phase/5),
			},
			{
				Phasors: []c37118.Phasor{
					{Name: "VA", Magnitude: volts - 0.7 + 0.25*math.Sin(phase+1), AngleRad: 1.1},
					{Name: "IA", Magnitude: amps - 3 + 2*math.Sin(phase/4), AngleRad: -0.2},
				},
				Freq: 60 + 0.01*math.Sin(phase/5+0.2),
			},
		}}
		frame, err := d.Marshal(cfg)
		if err != nil {
			panic("benchmark: " + err.Error())
		}
		s.emit(t.Add(time.Duration(rng.Int63n(int64(interval/4)))), true, frame)
		frames++
	}
	return s.recs
}

// modbusAssoc is one master→feeder-RTU Modbus/TCP association polled
// at modbusPollHz: a six-register read every poll, a coil read every
// fifth, a setpoint write every fortieth. Values wander with the seed;
// the poll schedule does not.
func modbusAssoc(i int, seed int64, start, end time.Time, master netip.Addr) []scadasim.Record {
	rng := rand.New(rand.NewSource(seed*6113 + int64(i)))
	s := &tcpStream{
		client:    netip.AddrPortFrom(master, uint16(42000+i)),
		server:    netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 8, byte(1 + i)}), [2]uint16{modbusPort, modbusAltPort}[i%2]),
		clientSeq: 7000 + uint32(i),
		serverSeq: 8000 + uint32(i),
	}
	const unit = 1
	txid := uint16(1)
	poll := func(t time.Time, req, resp []byte) {
		s.emit(t, true, req)
		s.emit(t.Add(15*time.Millisecond+time.Duration(rng.Int63n(int64(15*time.Millisecond)))), false, resp)
		txid++
	}
	base := 3000 + rng.Intn(500)
	phase0 := 2 * math.Pi * rng.Float64()
	interval := time.Second / modbusPollHz
	n := 0
	for t := start.Add(500*time.Millisecond + time.Duration(i)*7*time.Millisecond); t.Before(end); t = t.Add(interval) {
		vals := make([]uint16, 6)
		for j := range vals {
			vals[j] = uint16(base + 40*j + int(30*math.Sin(phase0+float64(n)/25+float64(j))))
		}
		poll(t, modbus.ReadRequest(txid, unit, modbus.FuncReadHolding, 100, 6),
			modbus.ReadRegistersResponse(txid, unit, modbus.FuncReadHolding, vals))
		switch {
		case n%5 == 2:
			bits := make([]bool, 8)
			for j := range bits {
				bits[j] = (n/5+j)%3 != 0
			}
			poll(t.Add(100*time.Millisecond), modbus.ReadRequest(txid, unit, modbus.FuncReadCoils, 10, 8),
				modbus.ReadBitsResponse(txid, unit, modbus.FuncReadCoils, bits))
		case n%40 == 17:
			req := modbus.WriteSingle(txid, unit, modbus.FuncWriteSingleReg, 200, uint16(500+n%1000))
			poll(t.Add(100*time.Millisecond), req, req)
		}
		n++
	}
	return s.recs
}
