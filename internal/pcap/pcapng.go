package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// pcapng block types.
const (
	blockSHB = 0x0A0D0D0A // section header
	blockIDB = 0x00000001 // interface description
	blockEPB = 0x00000006 // enhanced packet
	blockSPB = 0x00000003 // simple packet
)

// byteOrderMagic inside a section header block.
const byteOrderMagic = 0x1A2B3C4D

// NgReader decodes pcapng capture streams (the format Wireshark writes
// by default since 1.8). Only reading is supported; the synthesizer
// always writes classic pcap.
type NgReader struct {
	r     io.Reader
	order binary.ByteOrder
	// interfaces seen in the current section, in declaration order.
	ifaces []ngInterface
	// scratch holds the current block body; it grows to the largest
	// block seen and is reused for every subsequent block, so steady-
	// state block reads allocate nothing.
	scratch []byte
}

type ngInterface struct {
	link    LinkType
	snapLen uint32
	// tsDivisor converts raw timestamps to seconds (units per second).
	tsDivisor uint64
}

// pcapng errors.
var (
	ErrNotPcapNg   = errors.New("pcap: not a pcapng stream")
	ErrNgCorrupt   = errors.New("pcap: corrupt pcapng block")
	ErrNgInterface = errors.New("pcap: packet references an undeclared interface")
)

// NewNgReader parses the leading section header block. Unless r is
// already buffered (implements io.ByteReader) it is wrapped in a
// bufio.Reader.
func NewNgReader(r io.Reader) (*NgReader, error) {
	ng := &NgReader{r: buffered(r)}
	typ, body, err := ng.readBlockHeader()
	if err != nil {
		return nil, err
	}
	if typ != blockSHB {
		return nil, fmt.Errorf("%w: first block type %#08x", ErrNotPcapNg, typ)
	}
	if err := ng.parseSHB(body); err != nil {
		return nil, err
	}
	// Scan ahead to the first interface description so LinkType is
	// answerable before the first packet; packet blocks cannot
	// legally precede their interface.
	for len(ng.ifaces) == 0 {
		typ, body, err := ng.readBlockHeader()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch typ {
		case blockSHB:
			if err := ng.parseSHB(body); err != nil {
				return nil, err
			}
		case blockIDB:
			if err := ng.parseIDB(body); err != nil {
				return nil, err
			}
		case blockEPB, blockSPB:
			return nil, ErrNgInterface
		default:
			// skip
		}
	}
	return ng, nil
}

// readBlockHeader reads one block and returns its type and body
// (between the leading and trailing length fields). Byte order for the
// very first SHB is sniffed from the byte-order magic.
func (ng *NgReader) readBlockHeader() (uint32, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(ng.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("pcap: reading pcapng block header: %w", err)
	}
	if ng.order == nil {
		// The SHB starts 0A 0D 0D 0A regardless of endianness; the
		// byte-order magic is the first body word. Peek at it.
		if binary.BigEndian.Uint32(hdr[0:4]) != blockSHB {
			return 0, nil, ErrNotPcapNg
		}
		var magic [4]byte
		if _, err := io.ReadFull(ng.r, magic[:]); err != nil {
			return 0, nil, fmt.Errorf("pcap: reading byte-order magic: %w", err)
		}
		switch binary.LittleEndian.Uint32(magic[:]) {
		case byteOrderMagic:
			ng.order = binary.LittleEndian
		default:
			if binary.BigEndian.Uint32(magic[:]) != byteOrderMagic {
				return 0, nil, fmt.Errorf("%w: byte-order magic % x", ErrNotPcapNg, magic)
			}
			ng.order = binary.BigEndian
		}
		total := ng.order.Uint32(hdr[4:8])
		if total < 28 || total > 1<<24 {
			return 0, nil, fmt.Errorf("%w: SHB length %d", ErrNgCorrupt, total)
		}
		body := ng.growScratch(int(total - 12))
		if _, err := io.ReadFull(ng.r, body); err != nil {
			return 0, nil, fmt.Errorf("pcap: reading SHB: %w", err)
		}
		if ng.order.Uint32(body[len(body)-4:]) != total {
			return 0, nil, fmt.Errorf("%w: SHB trailing length mismatch", ErrNgCorrupt)
		}
		// body = byte-order magic already consumed; body holds
		// version + section length + options + trailing length.
		full := append(magic[:], body[:len(body)-4]...)
		return blockSHB, full, nil
	}
	typ := ng.order.Uint32(hdr[0:4])
	total := ng.order.Uint32(hdr[4:8])
	if total < 12 || total%4 != 0 || total > 1<<24 {
		return 0, nil, fmt.Errorf("%w: block %#08x length %d", ErrNgCorrupt, typ, total)
	}
	body := ng.growScratch(int(total - 8))
	if _, err := io.ReadFull(ng.r, body); err != nil {
		return 0, nil, fmt.Errorf("pcap: reading block %#08x: %w", typ, err)
	}
	// Verify the trailing length copy.
	if ng.order.Uint32(body[len(body)-4:]) != total {
		return 0, nil, fmt.Errorf("%w: trailing length mismatch", ErrNgCorrupt)
	}
	return typ, body[:len(body)-4], nil
}

// growScratch returns the reader's scratch buffer sized to n bytes,
// growing it when a larger block arrives. The returned slice is only
// valid until the next block read.
func (ng *NgReader) growScratch(n int) []byte {
	if cap(ng.scratch) < n {
		ng.scratch = make([]byte, n)
	}
	ng.scratch = ng.scratch[:n]
	return ng.scratch
}

func (ng *NgReader) parseSHB(body []byte) error {
	if len(body) < 16 {
		return ErrNgCorrupt
	}
	major := ng.order.Uint16(body[4:6])
	if major != 1 {
		return fmt.Errorf("pcap: unsupported pcapng major version %d", major)
	}
	// New section: interfaces reset.
	ng.ifaces = nil
	return nil
}

func (ng *NgReader) parseIDB(body []byte) error {
	if len(body) < 8 {
		return ErrNgCorrupt
	}
	iface := ngInterface{
		link:      LinkType(ng.order.Uint16(body[0:2])),
		snapLen:   ng.order.Uint32(body[4:8]),
		tsDivisor: 1_000_000, // default microseconds
	}
	// Options: code(2) len(2) value(padded to 4)...
	opts := body[8:]
	for len(opts) >= 4 {
		code := ng.order.Uint16(opts[0:2])
		olen := int(ng.order.Uint16(opts[2:4]))
		opts = opts[4:]
		if olen > len(opts) {
			return ErrNgCorrupt
		}
		val := opts[:olen]
		if code == 0 { // opt_endofopt
			break
		}
		if code == 9 && olen >= 1 { // if_tsresol
			res := val[0]
			if exp := res & 0x7F; res&0x80 != 0 {
				if exp < 63 {
					iface.tsDivisor = 1 << exp
				}
			} else {
				d := uint64(1)
				for i := byte(0); i < exp && d < math.MaxUint64/10; i++ {
					d *= 10
				}
				iface.tsDivisor = d
			}
		}
		pad := (4 - olen%4) % 4
		if olen+pad > len(opts) {
			break
		}
		opts = opts[olen+pad:]
	}
	if iface.tsDivisor == 0 {
		iface.tsDivisor = 1_000_000
	}
	ng.ifaces = append(ng.ifaces, iface)
	return nil
}

// ReadPacket returns the next captured packet in a freshly allocated
// buffer, skipping non-packet blocks. io.EOF signals a clean end of
// stream. Hot paths should prefer ReadPacketInto.
func (ng *NgReader) ReadPacket() ([]byte, CaptureInfo, error) {
	return ng.ReadPacketInto(nil)
}

// ReadPacketInto reads the next packet into scratch (grown as needed)
// and returns the slice holding exactly the packet bytes. Same
// ownership contract as Reader.ReadPacketInto: the result is valid
// until the scratch is reused, and passing nil allocates.
func (ng *NgReader) ReadPacketInto(scratch []byte) ([]byte, CaptureInfo, error) {
	for {
		typ, body, err := ng.readBlockHeader()
		if err != nil {
			return nil, CaptureInfo{}, err
		}
		switch typ {
		case blockSHB:
			if err := ng.parseSHB(body); err != nil {
				return nil, CaptureInfo{}, err
			}
		case blockIDB:
			if err := ng.parseIDB(body); err != nil {
				return nil, CaptureInfo{}, err
			}
		case blockEPB:
			return ng.parseEPB(body, scratch)
		case blockSPB:
			return ng.parseSPB(body, scratch)
		default:
			// Name resolution, statistics, custom blocks: skip.
		}
	}
}

func (ng *NgReader) parseEPB(body, scratch []byte) ([]byte, CaptureInfo, error) {
	if len(body) < 20 {
		return nil, CaptureInfo{}, ErrNgCorrupt
	}
	ifaceID := ng.order.Uint32(body[0:4])
	if int(ifaceID) >= len(ng.ifaces) {
		return nil, CaptureInfo{}, ErrNgInterface
	}
	iface := ng.ifaces[ifaceID]
	tsRaw := uint64(ng.order.Uint32(body[4:8]))<<32 | uint64(ng.order.Uint32(body[8:12]))
	capLen := int(ng.order.Uint32(body[12:16]))
	origLen := int(ng.order.Uint32(body[16:20]))
	if capLen < 0 || 20+capLen > len(body) {
		return nil, CaptureInfo{}, ErrNgCorrupt
	}
	// The block body lives in the reader's scratch; copy the packet out
	// into the caller's buffer before the next block overwrites it.
	data := grow(scratch, capLen)
	copy(data, body[20:20+capLen])
	div := iface.tsDivisor
	sec := tsRaw / div
	frac := tsRaw % div
	nanos := int64(frac) * int64(time.Second) / int64(div)
	return data, CaptureInfo{
		Timestamp:     time.Unix(int64(sec), nanos).UTC(),
		CaptureLength: capLen,
		Length:        origLen,
	}, nil
}

func (ng *NgReader) parseSPB(body, scratch []byte) ([]byte, CaptureInfo, error) {
	if len(body) < 4 || len(ng.ifaces) == 0 {
		return nil, CaptureInfo{}, ErrNgCorrupt
	}
	origLen := int(ng.order.Uint32(body[0:4]))
	capLen := origLen
	iface := ng.ifaces[0]
	if iface.snapLen != 0 && capLen > int(iface.snapLen) {
		capLen = int(iface.snapLen)
	}
	if 4+capLen > len(body) {
		capLen = len(body) - 4
	}
	data := grow(scratch, capLen)
	copy(data, body[4:4+capLen])
	return data, CaptureInfo{CaptureLength: capLen, Length: origLen}, nil
}

// LinkType returns the first interface's link type (Ethernet when no
// interface block has been seen yet).
func (ng *NgReader) LinkType() LinkType {
	if len(ng.ifaces) == 0 {
		return LinkTypeEthernet
	}
	return ng.ifaces[0].link
}

// PacketReader is the common surface of the classic and pcapng
// readers. ReadPacket hands back a freshly allocated buffer;
// ReadPacketInto reuses a caller-supplied scratch (see
// Reader.ReadPacketInto for the ownership contract).
type PacketReader interface {
	ReadPacket() ([]byte, CaptureInfo, error)
	ReadPacketInto(scratch []byte) ([]byte, CaptureInfo, error)
	LinkType() LinkType
}

// NewAutoReader sniffs the capture format (classic pcap in either
// endianness, with µs or ns timestamps, or pcapng) and returns the
// matching reader.
func NewAutoReader(r io.Reader) (PacketReader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("pcap: sniffing capture format: %w", err)
	}
	if binary.BigEndian.Uint32(magic) == blockSHB {
		return NewNgReader(br)
	}
	return NewReader(br)
}
