// Package modbus implements the Modbus/TCP application protocol at the
// depth the measurement pipeline needs: MBAP framing with garbage
// resync, request/response/exception decoding for the register and
// coil function codes, and encode helpers for the traffic simulator.
// The paper's tap carried "other industrial protocols over TCP/IP"
// (§5) alongside IEC 104; Modbus/TCP is the most common of them in
// distribution substations, and this codec lets the multi-protocol
// analysis treat it as a first-class dialect rather than an OtherPorts
// byte tally.
package modbus

import (
	"encoding/binary"
	"errors"

	"uncharted/internal/protocol"
)

// Port is the registered Modbus/TCP server port.
const Port = 502

// Function codes the codec understands structurally. Any other code
// still frames and tokenises; it just yields no measurements.
const (
	FuncReadCoils          uint8 = 1
	FuncReadDiscreteInputs uint8 = 2
	FuncReadHolding        uint8 = 3
	FuncReadInput          uint8 = 4
	FuncWriteSingleCoil    uint8 = 5
	FuncWriteSingleReg     uint8 = 6
	FuncWriteMultipleCoils uint8 = 15
	FuncWriteMultipleRegs  uint8 = 16
)

// ExceptionBit marks a response PDU as an exception reply.
const ExceptionBit uint8 = 0x80

// maxPDU is the Modbus PDU size limit (253 bytes), so the MBAP length
// field (unit id + PDU) is at most 254.
const maxPDU = 253

// Errors.
var (
	ErrShort     = errors.New("modbus: truncated ADU")
	ErrBadHeader = errors.New("modbus: implausible MBAP header")
)

// ADU is one decoded Modbus/TCP application data unit.
type ADU struct {
	TxID uint16
	Unit uint8
	// Func is the raw function code, exception bit included.
	Func uint8
	// Data is the PDU body after the function code; it aliases the
	// framed input.
	Data []byte
}

// Exception reports whether the ADU is an exception response.
func (a ADU) Exception() bool { return a.Func&ExceptionBit != 0 }

// BaseFunc strips the exception bit.
func (a ADU) BaseFunc() uint8 { return a.Func &^ ExceptionBit }

// framing is the MBAP head rule, tried at every offset for want of a
// magic byte: protocol id zero, a length covering unit and function and
// at most a full PDU, and a non-zero function code.
var framing = protocol.Framing{
	Sync: protocol.NoSync,
	Head: 8,
	Max:  6 + maxPDU + 1,
	Length: func(head []byte) int {
		length := int(binary.BigEndian.Uint16(head[4:6]))
		if head[2] != 0 || head[3] != 0 || length < 2 || length > maxPDU+1 || head[7]&^ExceptionBit == 0 {
			return 0
		}
		return 6 + length
	},
}

// DecodeADU parses the ADU at the front of b: a head the MBAP framing
// rule accepts and the whole frame it names.
func DecodeADU(b []byte) (ADU, error) {
	if len(b) < framing.Head {
		return ADU{}, ErrShort
	}
	n := framing.Length(b[:framing.Head])
	if n == 0 {
		return ADU{}, ErrBadHeader
	}
	if len(b) < n {
		return ADU{}, ErrShort
	}
	return aduOf(b[:n]), nil
}

// aduOf reads a frame the MBAP framing rule cut.
func aduOf(frame []byte) ADU {
	return ADU{TxID: binary.BigEndian.Uint16(frame[0:2]), Unit: frame[6], Func: frame[7], Data: frame[8:]}
}

// MarshalADU renders an ADU with the given PDU body.
func MarshalADU(txid uint16, unit, fn uint8, data []byte) []byte {
	out := make([]byte, 8+len(data))
	binary.BigEndian.PutUint16(out[0:2], txid)
	// Protocol id 0.
	binary.BigEndian.PutUint16(out[4:6], uint16(2+len(data)))
	out[6] = unit
	out[7] = fn
	copy(out[8:], data)
	return out
}

// ReadRequest builds a fc 1-4 read request for count items starting at
// addr.
func ReadRequest(txid uint16, unit, fn uint8, addr, count uint16) []byte {
	var d [4]byte
	binary.BigEndian.PutUint16(d[0:2], addr)
	binary.BigEndian.PutUint16(d[2:4], count)
	return MarshalADU(txid, unit, fn, d[:])
}

// ReadRegistersResponse builds a fc 3/4 response carrying values.
func ReadRegistersResponse(txid uint16, unit, fn uint8, values []uint16) []byte {
	d := make([]byte, 1+2*len(values))
	d[0] = byte(2 * len(values))
	for i, v := range values {
		binary.BigEndian.PutUint16(d[1+2*i:], v)
	}
	return MarshalADU(txid, unit, fn, d)
}

// ReadBitsResponse builds a fc 1/2 response carrying packed bits.
func ReadBitsResponse(txid uint16, unit, fn uint8, bits []bool) []byte {
	nb := (len(bits) + 7) / 8
	d := make([]byte, 1+nb)
	d[0] = byte(nb)
	for i, b := range bits {
		if b {
			d[1+i/8] |= 1 << (i % 8)
		}
	}
	return MarshalADU(txid, unit, fn, d)
}

// WriteSingle builds a fc 5/6 request (the response is an identical
// echo). For fc 5 the conventional ON value is 0xFF00.
func WriteSingle(txid uint16, unit, fn uint8, addr, value uint16) []byte {
	var d [4]byte
	binary.BigEndian.PutUint16(d[0:2], addr)
	binary.BigEndian.PutUint16(d[2:4], value)
	return MarshalADU(txid, unit, fn, d[:])
}

// WriteMultipleRegs builds a fc 16 request.
func WriteMultipleRegs(txid uint16, unit uint8, addr uint16, values []uint16) []byte {
	d := make([]byte, 5+2*len(values))
	binary.BigEndian.PutUint16(d[0:2], addr)
	binary.BigEndian.PutUint16(d[2:4], uint16(len(values)))
	d[4] = byte(2 * len(values))
	for i, v := range values {
		binary.BigEndian.PutUint16(d[5+2*i:], v)
	}
	return MarshalADU(txid, unit, FuncWriteMultipleRegs, d)
}

// WriteMultipleAck builds the fc 15/16 response (start address + item
// count).
func WriteMultipleAck(txid uint16, unit, fn uint8, addr, count uint16) []byte {
	var d [4]byte
	binary.BigEndian.PutUint16(d[0:2], addr)
	binary.BigEndian.PutUint16(d[2:4], count)
	return MarshalADU(txid, unit, fn, d[:])
}

// Exception builds an exception response for a request function code.
func Exception(txid uint16, unit, fn, code uint8) []byte {
	return MarshalADU(txid, unit, fn|ExceptionBit, []byte{code})
}
