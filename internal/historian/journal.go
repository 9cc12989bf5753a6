package historian

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The Sync journal. Sync makes buffered samples durable by appending
// one frame to journal.ulog rather than by cutting every point's buffer
// into a block, so blocks fill to Options.FlushSamples whatever the
// caller's snapshot cadence.
//
// A frame is: magic, length (of what follows, up to the CRC), a mark —
// the active segment's sequence number and size when the frame was
// written — then one block record per point holding the samples
// buffered since that point was last journaled (the segment record
// format, its codec and per-record CRC), then a CRC of all of it.
//
// Replay rule: on Open a frame's record for point P is restored iff no
// block of P lies at or after the frame's mark. A block drains its
// point's whole buffer, so such a block already holds every sample the
// record holds; one before the mark holds none of them. Sync fsyncs
// the active segment before it writes the frame, so every block a mark
// counts on is on disk when the frame is.
const (
	journalName   = "journal.ulog"
	frameMagic    = 0x554A4E4C // "UJNL"
	frameHeadSize = 4 + 4 + 8 + 8
)

// mark is a position in the store's segment sequence.
type mark struct {
	seq  int
	size int64
}

// journalEntry is one record of a replayed frame: a point's samples and
// the mark of the frame that held them.
type journalEntry struct {
	rec     record
	samples []slot
	at      mark
}

// appendFrameHead starts a frame at m; sealFrame finishes it.
func appendFrameHead(dst []byte, m mark) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, 0, 0, 0, 0) // length, known once the records are in
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.seq))
	return binary.LittleEndian.AppendUint64(dst, uint64(m.size))
}

// sealFrame patches the length of the frame that fills frame and
// appends its CRC.
func sealFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(frame)-8))
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
}

// parseJournal returns the records of every intact frame at the front
// of data and how many bytes those frames span. It stops at the first
// frame that is torn, fails its CRC, or holds a record that does not
// parse and decode: that frame and everything after it are discarded.
func parseJournal(data []byte) (entries []journalEntry, valid int) {
	for len(data)-valid >= frameHeadSize+4 {
		f := data[valid:]
		n := int(binary.LittleEndian.Uint32(f[4:]))
		if binary.LittleEndian.Uint32(f) != frameMagic || n < frameHeadSize-8 || n > len(f)-12 ||
			binary.LittleEndian.Uint32(f[8+n:]) != crc32.ChecksumIEEE(f[:8+n]) {
			break
		}
		at := mark{seq: int(binary.LittleEndian.Uint64(f[8:])), size: int64(binary.LittleEndian.Uint64(f[16:]))}
		body := f[frameHeadSize : 8+n]
		r, end := bytes.NewReader(body), int64(len(body))
		frame := len(entries)
		for off := int64(0); off < end; {
			rec, next, ok := readRecord(r, off, end)
			if !ok {
				return entries[:frame], valid
			}
			samples, err := DecodeBlock(rec.payload)
			if err != nil || len(samples) != int(rec.meta.Count) {
				return entries[:frame], valid
			}
			e := journalEntry{rec: rec, samples: make([]slot, len(samples)), at: at}
			for i, s := range samples {
				e.samples[i] = slot{t: s.T.UnixNano(), v: s.V}
			}
			entries = append(entries, e)
			off = next
		}
		valid += 12 + n
	}
	return entries, valid
}

// blockSince reports whether key has a block at or after m.
func (st *Store) blockSince(key PointKey, m mark) bool {
	for _, seg := range append(st.sealed[:len(st.sealed):len(st.sealed)], st.active) {
		pm := seg.points[key]
		if pm == nil || seg.seq < m.seq {
			continue
		}
		if seg.seq > m.seq && len(pm.Blocks) > 0 {
			return true
		}
		for _, b := range pm.Blocks {
			if b.Off >= m.size {
				return true
			}
		}
	}
	return false
}

// replayJournalLocked restores what the journal holds and no block
// does, then writes it all to blocks and empties the journal: a
// recovered store has no journal. Torn or corrupt frame bytes are
// counted like a torn segment tail.
func (st *Store) replayJournalLocked() error {
	f, err := os.OpenFile(filepath.Join(st.dir, journalName), os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	st.journal = f
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	data := make([]byte, fi.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		return err
	}
	st.jsize = int64(len(data))
	entries, valid := parseJournal(data)
	st.m.noteTorn(int64(len(data) - valid))
	// Decide every record against the index as it was at the crash
	// before writing anything: restoring may flush blocks of its own.
	keep := entries[:0]
	for _, e := range entries {
		if !st.blockSince(e.rec.key, e.at) {
			keep = append(keep, e)
		}
	}
	for _, e := range keep {
		buf := st.bufferLocked(st.stationLocked(e.rec.key.Station), e.rec.key, e.rec.typ, e.rec.flags)
		for _, s := range e.samples {
			if err := st.appendLocked(buf, s); err != nil {
				return err
			}
		}
	}
	return st.resetJournalLocked()
}

// journalLocked makes every buffered sample durable. The order matters:
// anything staged is written, then the active segment is fsynced if it
// holds unsynced records (a block flushed since the last Sync holds
// samples no frame has), then one frame with each point's samples since
// its last journaled position is written and fsynced. Nothing new
// writes nothing. When the frame would take the journal past
// MaxSegmentBytes, every buffer is flushed to blocks and the journal
// emptied instead, which bounds the file.
func (st *Store) journalLocked() error {
	if err := st.writeStagedLocked(); err != nil {
		return err
	}
	if err := st.syncActiveLocked(); err != nil {
		return err
	}
	frame := appendFrameHead(st.frame[:0], mark{seq: st.active.seq, size: st.active.size})
	for _, buf := range st.order {
		if buf.n > buf.journaled {
			frame, _ = appendRecord(frame, buf, st.gather(buf, buf.journaled))
		}
	}
	st.frame = frame
	if len(frame) == frameHeadSize {
		return nil
	}
	if st.jsize+int64(len(frame))+4 > st.opts.MaxSegmentBytes {
		return st.resetJournalLocked()
	}
	if st.journal == nil {
		f, err := os.OpenFile(filepath.Join(st.dir, journalName), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		st.journal = f
	}
	st.frame = sealFrame(frame)
	// A failed write or fsync leaves jsize where it was, so the next
	// frame overwrites whatever part of this one reached the file.
	if _, err := st.journal.WriteAt(st.frame, st.jsize); err != nil {
		return err
	}
	if err := st.journal.Sync(); err != nil {
		return err
	}
	st.m.noteFsync()
	st.jsize += int64(len(st.frame))
	st.m.noteJournal(st.jsize)
	for _, buf := range st.order {
		buf.journaled = buf.n
	}
	return nil
}

// resetJournalLocked writes every buffer to blocks, fsyncs the active
// segment and truncates the journal: every record it held now has a
// block at or after its mark, so dropping it loses nothing — even if
// the truncation itself does not survive a crash.
func (st *Store) resetJournalLocked() error {
	if err := st.flushAllLocked(); err != nil {
		return err
	}
	if err := st.syncActiveLocked(); err != nil {
		return err
	}
	if st.jsize == 0 {
		return nil
	}
	if err := st.journal.Truncate(0); err != nil {
		return err
	}
	st.jsize = 0
	st.m.noteJournal(0)
	return nil
}
