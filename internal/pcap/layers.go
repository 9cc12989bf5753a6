package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Layer decode errors.
var (
	ErrShortEthernet = errors.New("pcap: frame shorter than Ethernet header")
	ErrShortIPv4     = errors.New("pcap: packet shorter than IPv4 header")
	ErrShortTCP      = errors.New("pcap: segment shorter than TCP header")
	ErrNotIPv4       = errors.New("pcap: not an IPv4 packet")
	ErrNotTCP        = errors.New("pcap: not a TCP segment")
)

// EtherType values used by the decoder.
const (
	EtherTypeIPv4 = 0x0800
)

// IP protocol numbers used by the decoder.
const (
	IPProtoTCP = 6
)

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	Dst, Src  [6]byte
	EtherType uint16
	Payload   []byte
}

// DecodeEthernet parses an Ethernet II frame.
func DecodeEthernet(data []byte) (Ethernet, error) {
	var e Ethernet
	err := e.decode(data)
	return e, err
}

// decode parses an Ethernet II frame into e, setting every field; e is
// untouched on error.
func (e *Ethernet) decode(data []byte) error {
	if len(data) < 14 {
		return ErrShortEthernet
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	e.Payload = data[14:]
	return nil
}

// Serialize renders the frame (header plus payload).
func (e Ethernet) Serialize() []byte {
	out := make([]byte, 14+len(e.Payload))
	copy(out[0:6], e.Dst[:])
	copy(out[6:12], e.Src[:])
	binary.BigEndian.PutUint16(out[12:14], e.EtherType)
	copy(out[14:], e.Payload)
	return out
}

// IPv4 is a decoded IPv4 header. Options are retained raw.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
	Options  []byte
	Payload  []byte
}

// DecodeIPv4 parses an IPv4 packet and validates its header checksum.
func DecodeIPv4(data []byte) (IPv4, error) {
	var p IPv4
	err := p.decode(data)
	return p, err
}

// decode parses an IPv4 packet into p, setting every field; p is
// untouched on error.
func (p *IPv4) decode(data []byte) error {
	if len(data) < 20 {
		return ErrShortIPv4
	}
	if data[0]>>4 != 4 {
		return ErrNotIPv4
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl < 20 || len(data) < ihl {
		return fmt.Errorf("%w: IHL %d", ErrShortIPv4, ihl)
	}
	totalLen := int(binary.BigEndian.Uint16(data[2:4]))
	if totalLen < ihl || totalLen > len(data) {
		return fmt.Errorf("pcap: IPv4 total length %d outside [%d,%d]", totalLen, ihl, len(data))
	}
	if Checksum(data[:ihl]) != 0 {
		return errors.New("pcap: IPv4 header checksum mismatch")
	}
	p.TOS = data[1]
	p.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	p.Flags = uint8(ff >> 13)
	p.FragOff = ff & 0x1FFF
	p.TTL = data[8]
	p.Protocol = data[9]
	p.Src = netip.AddrFrom4([4]byte(data[12:16]))
	p.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	p.Options = data[20:ihl]
	p.Payload = data[ihl:totalLen]
	return nil
}

// Serialize renders the packet with a freshly computed header checksum.
func (p IPv4) Serialize() ([]byte, error) {
	if !p.Src.Is4() || !p.Dst.Is4() {
		return nil, errors.New("pcap: IPv4 serialize requires 4-byte addresses")
	}
	if len(p.Options)%4 != 0 {
		return nil, errors.New("pcap: IPv4 options must pad to 32-bit words")
	}
	ihl := 20 + len(p.Options)
	totalLen := ihl + len(p.Payload)
	if totalLen > 0xFFFF {
		return nil, fmt.Errorf("pcap: IPv4 packet length %d overflows", totalLen)
	}
	out := make([]byte, totalLen)
	out[0] = 0x40 | uint8(ihl/4)
	out[1] = p.TOS
	binary.BigEndian.PutUint16(out[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(out[4:6], p.ID)
	binary.BigEndian.PutUint16(out[6:8], uint16(p.Flags)<<13|p.FragOff&0x1FFF)
	ttl := p.TTL
	if ttl == 0 {
		ttl = 64
	}
	out[8] = ttl
	out[9] = p.Protocol
	src := p.Src.As4()
	dst := p.Dst.As4()
	copy(out[12:16], src[:])
	copy(out[16:20], dst[:])
	copy(out[20:ihl], p.Options)
	binary.BigEndian.PutUint16(out[10:12], Checksum(out[:ihl]))
	copy(out[ihl:], p.Payload)
	return out, nil
}

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// TCP is a decoded TCP header plus payload.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Urgent           uint16
	Options          []byte
	Payload          []byte
}

// Flag accessors.
func (t TCP) SYN() bool { return t.Flags&FlagSYN != 0 }
func (t TCP) ACK() bool { return t.Flags&FlagACK != 0 }
func (t TCP) FIN() bool { return t.Flags&FlagFIN != 0 }
func (t TCP) RST() bool { return t.Flags&FlagRST != 0 }

// FlagString renders the flags Wireshark-style, e.g. "SYN,ACK".
func (t TCP) FlagString() string {
	names := []struct {
		bit  uint8
		name string
	}{
		{FlagSYN, "SYN"}, {FlagFIN, "FIN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"},
	}
	out := ""
	for _, n := range names {
		if t.Flags&n.bit != 0 {
			if out != "" {
				out += ","
			}
			out += n.name
		}
	}
	return out
}

// DecodeTCP parses a TCP segment. The checksum is not verified here
// because verification needs the IP pseudo-header; use VerifyTCPChecksum.
func DecodeTCP(data []byte) (TCP, error) {
	var t TCP
	err := t.decode(data)
	return t, err
}

// decode parses a TCP segment into t, setting every field; t is
// untouched on error.
func (t *TCP) decode(data []byte) error {
	if len(data) < 20 {
		return ErrShortTCP
	}
	off := int(data[12]>>4) * 4
	if off < 20 || len(data) < off {
		return fmt.Errorf("%w: data offset %d", ErrShortTCP, off)
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.Flags = data[13] & 0x3F
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = data[20:off]
	t.Payload = data[off:]
	return nil
}

// Serialize renders the segment with the checksum computed against the
// given source and destination addresses.
func (t TCP) Serialize(src, dst netip.Addr) ([]byte, error) {
	if len(t.Options)%4 != 0 {
		return nil, errors.New("pcap: TCP options must pad to 32-bit words")
	}
	off := 20 + len(t.Options)
	out := make([]byte, off+len(t.Payload))
	binary.BigEndian.PutUint16(out[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(out[2:4], t.DstPort)
	binary.BigEndian.PutUint32(out[4:8], t.Seq)
	binary.BigEndian.PutUint32(out[8:12], t.Ack)
	out[12] = uint8(off/4) << 4
	out[13] = t.Flags
	win := t.Window
	if win == 0 {
		win = 65535
	}
	binary.BigEndian.PutUint16(out[14:16], win)
	binary.BigEndian.PutUint16(out[18:20], t.Urgent)
	copy(out[20:off], t.Options)
	copy(out[off:], t.Payload)
	cs, err := tcpChecksum(out, src, dst)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(out[16:18], cs)
	return out, nil
}

// VerifyTCPChecksum checks a raw TCP segment against its pseudo-header.
func VerifyTCPChecksum(segment []byte, src, dst netip.Addr) error {
	if len(segment) < 20 {
		return ErrShortTCP
	}
	cs, err := tcpChecksum(segment, src, dst)
	if err != nil {
		return err
	}
	got := binary.BigEndian.Uint16(segment[16:18])
	// tcpChecksum computes over the segment including its checksum
	// field; for a valid segment the folded sum is zero, meaning the
	// computed value equals the stored one.
	if cs != got {
		return fmt.Errorf("pcap: TCP checksum %#04x, want %#04x", got, cs)
	}
	return nil
}

// tcpChecksum computes the TCP checksum for segment with the checksum
// field treated as zero.
func tcpChecksum(segment []byte, src, dst netip.Addr) (uint16, error) {
	if !src.Is4() || !dst.Is4() {
		return 0, errors.New("pcap: TCP checksum requires IPv4 addresses")
	}
	s4 := src.As4()
	d4 := dst.As4()
	var pseudo [12]byte
	copy(pseudo[0:4], s4[:])
	copy(pseudo[4:8], d4[:])
	pseudo[9] = IPProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	sum := checksumPartial(pseudo[:], 0)
	sum = checksumPartial(segment[:16], sum)
	// Skip the checksum field itself (bytes 16-17).
	sum = checksumPartial(segment[18:], sum)
	return foldChecksum(sum), nil
}

// Checksum computes the RFC 1071 Internet checksum of data.
func Checksum(data []byte) uint16 {
	return foldChecksum(checksumPartial(data, 0))
}

func checksumPartial(data []byte, sum uint32) uint32 {
	for len(data) >= 2 {
		sum += uint32(data[0])<<8 | uint32(data[1])
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	return sum
}

func foldChecksum(sum uint32) uint16 {
	for sum > 0xFFFF {
		sum = sum>>16 + sum&0xFFFF
	}
	return ^uint16(sum)
}

// Packet bundles the decoded layers of one captured frame. Eth is the
// zero value (HasEth false) on raw-IP captures; it is held by value so
// decoding a packet performs no heap allocation.
type Packet struct {
	Info   CaptureInfo
	Eth    Ethernet
	HasEth bool
	IP     IPv4
	TCP    TCP
}

// DecodePacket parses one record according to the capture's link type.
// Frames that are not IPv4/TCP return an error; callers typically skip
// them (SCADA taps also see ARP, ICCP on other ports, etc.).
func DecodePacket(link LinkType, ci CaptureInfo, data []byte) (Packet, error) {
	var p Packet
	err := DecodePacketInto(&p, link, ci, data)
	return p, err
}

// DecodePacketInto is DecodePacket into caller-owned storage: every
// layer is parsed straight into dst, so a loop that reuses its slots
// never copies a Packet. On error dst holds the layers decoded so far
// and is not a valid packet.
func DecodePacketInto(dst *Packet, link LinkType, ci CaptureInfo, data []byte) error {
	dst.Info = ci
	ipBytes := data
	if link == LinkTypeEthernet {
		if err := dst.Eth.decode(data); err != nil {
			return err
		}
		if dst.Eth.EtherType != EtherTypeIPv4 {
			return fmt.Errorf("%w: ethertype %#04x", ErrNotIPv4, dst.Eth.EtherType)
		}
		dst.HasEth = true
		ipBytes = dst.Eth.Payload
	} else {
		dst.Eth, dst.HasEth = Ethernet{}, false
	}
	if err := dst.IP.decode(ipBytes); err != nil {
		return err
	}
	if dst.IP.Protocol != IPProtoTCP {
		return fmt.Errorf("%w: protocol %d", ErrNotTCP, dst.IP.Protocol)
	}
	return dst.TCP.decode(dst.IP.Payload)
}

// PeekIPv4Pair extracts the IPv4 source and destination addresses from
// a raw frame without decoding or validating the full packet. It is the
// cheap routing peek the streaming reader uses to pick a shard before
// handing the frame to a worker for the real decode. ok is false only
// when DecodePacket would certainly fail too (frame too short, not
// IPv4), so every packet the offline path would analyze gets a valid
// pair; frames that fail the peek still fail the worker-side decode and
// are skipped identically to the offline path.
func PeekIPv4Pair(link LinkType, data []byte) (src, dst netip.Addr, ok bool) {
	if link == LinkTypeEthernet {
		if len(data) < 14 || binary.BigEndian.Uint16(data[12:14]) != EtherTypeIPv4 {
			return netip.Addr{}, netip.Addr{}, false
		}
		data = data[14:]
	}
	if len(data) < 20 || data[0]>>4 != 4 {
		return netip.Addr{}, netip.Addr{}, false
	}
	return netip.AddrFrom4([4]byte(data[12:16])), netip.AddrFrom4([4]byte(data[16:20])), true
}

// BuildTCPPacket serializes a full Ethernet/IPv4/TCP frame. MAC
// addresses are derived from the IPv4 addresses so frames are stable
// and self-consistent across a synthetic capture.
func BuildTCPPacket(src, dst netip.AddrPort, tcp TCP) ([]byte, error) {
	tcp.SrcPort = src.Port()
	tcp.DstPort = dst.Port()
	seg, err := tcp.Serialize(src.Addr(), dst.Addr())
	if err != nil {
		return nil, err
	}
	ip := IPv4{
		TTL:      64,
		Protocol: IPProtoTCP,
		Src:      src.Addr(),
		Dst:      dst.Addr(),
		Payload:  seg,
	}
	ipBytes, err := ip.Serialize()
	if err != nil {
		return nil, err
	}
	eth := Ethernet{
		Src:       macFor(src.Addr()),
		Dst:       macFor(dst.Addr()),
		EtherType: EtherTypeIPv4,
		Payload:   ipBytes,
	}
	return eth.Serialize(), nil
}

// macFor derives a locally administered MAC from an IPv4 address.
func macFor(a netip.Addr) [6]byte {
	b := a.As4()
	return [6]byte{0x02, 0x00, b[0], b[1], b[2], b[3]}
}
