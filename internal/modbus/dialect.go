package modbus

import (
	"encoding/binary"

	"uncharted/internal/protocol"
)

// dialect implements protocol.Dialect for Modbus/TCP.
type dialect struct{}

func (dialect) ID() protocol.ID        { return protocol.Modbus }
func (dialect) Name() string           { return "modbus" }
func (dialect) Port() uint16           { return Port }
func (dialect) StationInitiates() bool { return false }
func (dialect) NewSession() protocol.Session {
	return &session{pending: make(map[uint16]request)}
}

// Sniff accepts a plausible MBAP header.
func (dialect) Sniff(b []byte) bool        { return framing.Plausible(b) }
func (dialect) Framing() *protocol.Framing { return &framing }

// request remembers an outstanding master request so the matching
// response can be decoded into addressed measurements.
type request struct {
	fn    uint8
	addr  uint16
	count uint16
}

// session is the per-flow protocol.Session. Both directions of the
// flow share it, so register reads pair across directions by MBAP
// transaction id.
type session struct {
	pending map[uint16]request
	pts     []protocol.Point
}

// Token kinds: a request travels master->outstation, so fromStation
// selects response vs request; the exception bit overrides both.
func tokenFor(a ADU, fromStation bool) protocol.Token {
	t := protocol.Token{Proto: protocol.Modbus, Code: uint16(a.BaseFunc())}
	switch {
	case a.Exception():
		t.Kind = protocol.KindModbusException
	case fromStation:
		t.Kind = protocol.KindModbusResponse
	default:
		t.Kind = protocol.KindModbusRequest
	}
	return t
}

func (s *session) Next(buf []byte, fromStation bool) (protocol.Event, []byte, int, bool) {
	frame, rest, skipped, ok := framing.Next(buf)
	if !ok {
		return protocol.Event{}, rest, skipped, false
	}
	a := aduOf(frame)
	ev := protocol.Event{Token: tokenFor(a, fromStation)}
	s.pts = s.pts[:0]
	switch {
	case a.Exception():
		delete(s.pending, a.TxID)
	case fromStation:
		s.respond(a)
	default:
		s.request(a)
	}
	if len(s.pts) > 0 {
		ev.Points = s.pts
	}
	return ev, rest, skipped, true
}

// request books a master->outstation PDU: reads are remembered for
// response pairing, writes yield command points immediately (they are
// the control-direction actions the IDS severity ladder watches).
func (s *session) request(a ADU) {
	switch a.Func {
	case FuncReadCoils, FuncReadDiscreteInputs, FuncReadHolding, FuncReadInput:
		if len(a.Data) < 4 {
			return
		}
		// A master whose responses never arrive (half-duplex capture,
		// dropped direction) must not grow the pairing table without
		// bound. A full table is cleared rather than losing whichever
		// entry map iteration yields, so which responses decode depends
		// on the stream alone.
		if len(s.pending) >= 1024 {
			clear(s.pending)
		}
		s.pending[a.TxID] = request{
			fn:    a.Func,
			addr:  binary.BigEndian.Uint16(a.Data[0:2]),
			count: binary.BigEndian.Uint16(a.Data[2:4]),
		}
	case FuncWriteSingleCoil:
		if len(a.Data) < 4 {
			return
		}
		v := float64(0)
		if binary.BigEndian.Uint16(a.Data[2:4]) != 0 {
			v = 1
		}
		s.point(binary.BigEndian.Uint16(a.Data[0:2]), a.Func, v, true)
	case FuncWriteSingleReg:
		if len(a.Data) < 4 {
			return
		}
		s.point(binary.BigEndian.Uint16(a.Data[0:2]), a.Func,
			float64(binary.BigEndian.Uint16(a.Data[2:4])), true)
	case FuncWriteMultipleRegs:
		if len(a.Data) < 5 {
			return
		}
		addr := binary.BigEndian.Uint16(a.Data[0:2])
		count := int(binary.BigEndian.Uint16(a.Data[2:4]))
		vals := a.Data[5:]
		for i := 0; i < count && 2*i+1 < len(vals); i++ {
			s.point(addr+uint16(i), a.Func,
				float64(binary.BigEndian.Uint16(vals[2*i:])), true)
		}
	case FuncWriteMultipleCoils:
		if len(a.Data) < 5 {
			return
		}
		addr := binary.BigEndian.Uint16(a.Data[0:2])
		count := int(binary.BigEndian.Uint16(a.Data[2:4]))
		bits := a.Data[5:]
		for i := 0; i < count && i/8 < len(bits); i++ {
			v := float64(0)
			if bits[i/8]&(1<<(i%8)) != 0 {
				v = 1
			}
			s.point(addr+uint16(i), a.Func, v, true)
		}
	}
}

// respond books an outstation->master PDU, pairing it with the pending
// request of the same transaction id to address the returned values.
func (s *session) respond(a ADU) {
	req, ok := s.pending[a.TxID]
	if !ok || req.fn != a.Func {
		return
	}
	delete(s.pending, a.TxID)
	switch a.Func {
	case FuncReadHolding, FuncReadInput:
		if len(a.Data) < 1 {
			return
		}
		vals := a.Data[1:]
		n := int(req.count)
		for i := 0; i < n && 2*i+1 < len(vals); i++ {
			s.point(req.addr+uint16(i), a.Func,
				float64(binary.BigEndian.Uint16(vals[2*i:])), false)
		}
	case FuncReadCoils, FuncReadDiscreteInputs:
		if len(a.Data) < 1 {
			return
		}
		bits := a.Data[1:]
		n := int(req.count)
		for i := 0; i < n && i/8 < len(bits); i++ {
			v := float64(0)
			if bits[i/8]&(1<<(i%8)) != 0 {
				v = 1
			}
			s.point(req.addr+uint16(i), a.Func, v, false)
		}
	}
}

func (s *session) point(addr uint16, fn uint8, v float64, command bool) {
	s.pts = append(s.pts, protocol.Point{
		IOA:     uint32(addr),
		Code:    fn,
		V:       v,
		Command: command,
	})
}

func init() { protocol.Register(dialect{}) }
