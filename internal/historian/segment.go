package historian

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// On-disk constants. All integers are little endian.
const (
	segMagic     = "UHIST001" // 8-byte segment file header
	trailerMagic = "UHIDXEND" // 8-byte sealed-segment trailer
	recMagic     = 0x55424C4B // "UBLK": one block record
	idxMagic     = 0x55494458 // "UIDX": sealed-segment index
)

// maxKeyLen bounds a stored station name; anything longer in a file is
// corruption.
const maxKeyLen = 1 << 12

// PointKey identifies one stored point: the station (ASDU address or
// resolved outstation name) and the information object address.
type PointKey struct {
	Station string
	IOA     uint32
}

func (k PointKey) String() string { return fmt.Sprintf("%s/%d", k.Station, k.IOA) }

// flagCommand marks control-direction (setpoint) series.
const flagCommand = 0x01

// flagProtoShift positions the dialect (protocol.ID) in the high
// nibble of the flags byte. IEC 104 is dialect zero, so records from
// IEC 104-only captures are byte-identical to the pre-multi-protocol
// format.
const flagProtoShift = 4

// blockMeta locates one block inside a segment — the sparse index
// entry: queries skip blocks whose [First,Last] window misses the
// requested range without touching their payload.
type blockMeta struct {
	Off         int64 // record start offset in the segment file
	Count       uint32
	First, Last int64  // unix nanoseconds
	Bytes       uint32 // compressed payload bytes
}

// pointMeta is a segment's per-point index.
type pointMeta struct {
	Key     PointKey
	Type    byte
	Flags   byte
	Blocks  []blockMeta
	Samples int64
}

// segment is one on-disk file: a header, a run of block records and —
// once sealed — an index plus trailer. The last segment of a store is
// active (append-mode); sealed segments are immutable.
type segment struct {
	path   string
	seq    int // from the file name: the order of segments
	f      *os.File
	size   int64 // bytes of valid record data (excluding index/trailer)
	sealed bool
	points map[PointKey]*pointMeta
	order  []PointKey
}

func (s *segment) point(key PointKey, typ, flags byte) *pointMeta {
	pm, ok := s.points[key]
	if !ok {
		pm = &pointMeta{Key: key, Type: typ, Flags: flags}
		s.points[key] = pm
		s.order = append(s.order, key)
	}
	return pm
}

// createSegment starts a fresh active segment.
func createSegment(path string) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return &segment{
		path:   path,
		seq:    segmentSeq(filepath.Base(path)),
		f:      f,
		size:   int64(len(segMagic)),
		points: make(map[PointKey]*pointMeta),
	}, nil
}

// stagedBlock is one encoded record of a write batch that has not
// reached the file yet: the point buffer it was encoded from and its
// index entry, with Off still relative to the start of the batch.
type stagedBlock struct {
	buf  *pointBuffer
	meta blockMeta
}

// appendRecord appends one block record — header, the compressed block
// of samples, CRC — for buf's point to dst and returns it with the
// record's staged index entry. The payload is encoded in place behind
// its header (its length is patched in afterwards), so nothing is built
// on the side.
func appendRecord(dst []byte, buf *pointBuffer, samples []slot) ([]byte, stagedBlock) {
	start := len(dst)
	first, last := samples[0].t, samples[len(samples)-1].t
	dst = binary.LittleEndian.AppendUint32(dst, recMagic)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(buf.key.Station)))
	dst = append(dst, buf.key.Station...)
	dst = binary.LittleEndian.AppendUint32(dst, buf.key.IOA)
	dst = append(dst, buf.typ, buf.flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(samples)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(first))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(last))
	dst = append(dst, 0, 0, 0, 0) // payload length, known once encoded
	payload := len(dst)
	dst = appendBlock(dst, samples)
	size := len(dst) - payload
	binary.LittleEndian.PutUint32(dst[payload-4:], uint32(size))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	return dst, stagedBlock{buf: buf, meta: blockMeta{
		Off: int64(start), Count: uint32(len(samples)), First: first, Last: last, Bytes: uint32(size),
	}}
}

// record is one block record as read back: its point, its index entry
// (Off is where it starts in what it was read from) and its compressed
// payload.
type record struct {
	key        PointKey
	typ, flags byte
	meta       blockMeta
	payload    []byte
}

// readRecord parses the block record at off in r, whose valid bytes end
// at end, and checks its CRC. It is the one record parser: a segment
// scan and a journal replay both walk records with it. ok is false for
// anything but one whole, intact record — a torn or corrupt tail.
func readRecord(r io.ReaderAt, off, end int64) (rec record, next int64, ok bool) {
	var hdr [4 + 2]byte
	if end-off < int64(len(hdr)) {
		return rec, off, false
	}
	if _, err := r.ReadAt(hdr[:], off); err != nil || binary.LittleEndian.Uint32(hdr[:4]) != recMagic {
		return rec, off, false
	}
	keyLen := int(binary.LittleEndian.Uint16(hdr[4:]))
	if keyLen > maxKeyLen {
		return rec, off, false
	}
	head := int64(recordHeaderSize(keyLen))
	if end-off < head {
		return rec, off, false
	}
	rest := make([]byte, head-int64(len(hdr)))
	if _, err := r.ReadAt(rest, off+int64(len(hdr))); err != nil {
		return rec, off, false
	}
	payloadLen := binary.LittleEndian.Uint32(rest[len(rest)-4:])
	total := head + int64(payloadLen) + 4
	if total > end-off {
		return rec, off, false
	}
	buf := make([]byte, total)
	if _, err := r.ReadAt(buf, off); err != nil {
		return rec, off, false
	}
	body := buf[:total-4]
	if binary.LittleEndian.Uint32(buf[total-4:]) != crc32.ChecksumIEEE(body) {
		return rec, off, false
	}
	return record{
		key:   PointKey{Station: string(rest[:keyLen]), IOA: binary.LittleEndian.Uint32(rest[keyLen:])},
		typ:   rest[keyLen+4],
		flags: rest[keyLen+5],
		meta: blockMeta{
			Off:   off,
			Count: binary.LittleEndian.Uint32(rest[keyLen+6:]),
			First: int64(binary.LittleEndian.Uint64(rest[keyLen+10:])),
			Last:  int64(binary.LittleEndian.Uint64(rest[keyLen+18:])),
			Bytes: payloadLen,
		},
		payload: body[head:],
	}, off + total, true
}

// writeBatch appends a run of encoded records with one write and then
// indexes them. On a write error nothing is indexed and the segment is
// as it was.
func (s *segment) writeBatch(recs []byte, blocks []stagedBlock) error {
	if _, err := s.f.WriteAt(recs, s.size); err != nil {
		return err
	}
	for _, b := range blocks {
		b.meta.Off += s.size
		pm := s.point(b.buf.key, b.buf.typ, b.buf.flags)
		pm.Blocks = append(pm.Blocks, b.meta)
		pm.Samples += int64(b.meta.Count)
	}
	s.size += int64(len(recs))
	return nil
}

// readRecordPayload re-reads and verifies the record at meta.Off and
// returns its compressed payload.
func (s *segment) readRecordPayload(key PointKey, m blockMeta) ([]byte, error) {
	size := recordHeaderSize(len(key.Station)) + int(m.Bytes) + 4
	buf := make([]byte, size)
	if _, err := s.f.ReadAt(buf, m.Off); err != nil {
		return nil, fmt.Errorf("historian: reading block at %d in %s: %w", m.Off, s.path, err)
	}
	body := buf[:len(buf)-4]
	if crc := binary.LittleEndian.Uint32(buf[len(buf)-4:]); crc != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("historian: CRC mismatch at %d in %s", m.Off, s.path)
	}
	return body[len(body)-int(m.Bytes):], nil
}

// recordHeaderSize is the fixed record overhead before the payload for
// a station name of the given length.
func recordHeaderSize(stationLen int) int {
	return 4 + 2 + stationLen + 4 + 1 + 1 + 4 + 8 + 8 + 4
}

// seal writes the sparse index and trailer, making the segment
// immutable and instantly indexable on reopen.
func (s *segment) seal() error {
	if s.sealed {
		return nil
	}
	idx := make([]byte, 0, 64*len(s.order))
	idx = binary.LittleEndian.AppendUint32(idx, idxMagic)
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(s.order)))
	for _, key := range s.order {
		pm := s.points[key]
		idx = binary.LittleEndian.AppendUint16(idx, uint16(len(key.Station)))
		idx = append(idx, key.Station...)
		idx = binary.LittleEndian.AppendUint32(idx, key.IOA)
		idx = append(idx, pm.Type, pm.Flags)
		idx = binary.LittleEndian.AppendUint32(idx, uint32(len(pm.Blocks)))
		for _, b := range pm.Blocks {
			idx = binary.LittleEndian.AppendUint64(idx, uint64(b.Off))
			idx = binary.LittleEndian.AppendUint32(idx, b.Count)
			idx = binary.LittleEndian.AppendUint64(idx, uint64(b.First))
			idx = binary.LittleEndian.AppendUint64(idx, uint64(b.Last))
			idx = binary.LittleEndian.AppendUint32(idx, b.Bytes)
		}
	}
	footer := make([]byte, 0, 20)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(s.size))
	footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(idx))
	footer = append(footer, trailerMagic...)
	if _, err := s.f.WriteAt(append(idx, footer...), s.size); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.sealed = true
	return nil
}

// openSegment loads an existing segment. Sealed segments load their
// index from the footer without touching record payloads; unsealed
// (active at crash or shutdown) segments are scanned record by record,
// and a torn tail — a partial or CRC-failing last record — is
// truncated away. tornBytes reports how much was discarded.
func openSegment(path string) (seg *segment, tornBytes int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	fileSize := st.Size()
	head := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, head); err != nil || string(head) != segMagic {
		f.Close()
		return nil, 0, fmt.Errorf("historian: %s is not a historian segment", path)
	}
	s := &segment{path: path, seq: segmentSeq(filepath.Base(path)), f: f, points: make(map[PointKey]*pointMeta)}

	if s.loadIndex(fileSize) == nil {
		s.sealed = true
		return s, 0, nil
	}
	// No (or invalid) index: scan records, truncate any torn tail.
	valid := s.scan(fileSize)
	s.size = valid
	if valid < fileSize {
		tornBytes = fileSize - valid
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	return s, tornBytes, nil
}

// loadIndex tries to parse a sealed segment's footer and index.
func (s *segment) loadIndex(fileSize int64) error {
	const footerLen = 8 + 4 + 8
	if fileSize < int64(len(segMagic))+footerLen {
		return errors.New("no footer")
	}
	footer := make([]byte, footerLen)
	if _, err := s.f.ReadAt(footer, fileSize-footerLen); err != nil {
		return err
	}
	if string(footer[12:]) != trailerMagic {
		return errors.New("no trailer magic")
	}
	idxOff := int64(binary.LittleEndian.Uint64(footer[:8]))
	wantCRC := binary.LittleEndian.Uint32(footer[8:12])
	if idxOff < int64(len(segMagic)) || idxOff > fileSize-footerLen {
		return errors.New("index offset out of range")
	}
	idx := make([]byte, fileSize-footerLen-idxOff)
	if _, err := s.f.ReadAt(idx, idxOff); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(idx) != wantCRC {
		return errors.New("index CRC mismatch")
	}
	p := 0
	get := func(n int) ([]byte, bool) {
		if p+n > len(idx) {
			return nil, false
		}
		b := idx[p : p+n]
		p += n
		return b, true
	}
	b, ok := get(8)
	if !ok || binary.LittleEndian.Uint32(b) != idxMagic {
		return errors.New("bad index magic")
	}
	nPoints := binary.LittleEndian.Uint32(b[4:])
	for i := uint32(0); i < nPoints; i++ {
		b, ok := get(2)
		if !ok {
			return errors.New("index truncated")
		}
		keyLen := int(binary.LittleEndian.Uint16(b))
		if keyLen > maxKeyLen {
			return errors.New("index key too long")
		}
		kb, ok := get(keyLen)
		if !ok {
			return errors.New("index truncated")
		}
		hb, ok := get(4 + 1 + 1 + 4)
		if !ok {
			return errors.New("index truncated")
		}
		key := PointKey{Station: string(kb), IOA: binary.LittleEndian.Uint32(hb)}
		pm := s.point(key, hb[4], hb[5])
		nBlocks := binary.LittleEndian.Uint32(hb[6:])
		for j := uint32(0); j < nBlocks; j++ {
			bb, ok := get(8 + 4 + 8 + 8 + 4)
			if !ok {
				return errors.New("index truncated")
			}
			bm := blockMeta{
				Off:   int64(binary.LittleEndian.Uint64(bb)),
				Count: binary.LittleEndian.Uint32(bb[8:]),
				First: int64(binary.LittleEndian.Uint64(bb[12:])),
				Last:  int64(binary.LittleEndian.Uint64(bb[20:])),
				Bytes: binary.LittleEndian.Uint32(bb[28:]),
			}
			pm.Blocks = append(pm.Blocks, bm)
			pm.Samples += int64(bm.Count)
		}
	}
	s.size = idxOff
	return nil
}

// scan walks the record run from the top of the file, rebuilding the
// in-memory index. It returns the offset of the first invalid byte —
// everything after it is a torn tail.
func (s *segment) scan(fileSize int64) int64 {
	off := int64(len(segMagic))
	for {
		rec, next, ok := readRecord(s.f, off, fileSize)
		if !ok {
			return off
		}
		pm := s.point(rec.key, rec.typ, rec.flags)
		pm.Blocks = append(pm.Blocks, rec.meta)
		pm.Samples += int64(rec.meta.Count)
		off = next
	}
}

// lastTS returns the newest sample timestamp in the segment (unix
// nanoseconds), for retention decisions.
func (s *segment) lastTS() int64 {
	var last int64 = math64Min
	for _, pm := range s.points {
		for _, b := range pm.Blocks {
			if b.Last > last {
				last = b.Last
			}
		}
	}
	return last
}

const math64Min = -1 << 63

func (s *segment) close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
