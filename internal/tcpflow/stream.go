package tcpflow

// stream reassembles one direction of a TCP byte stream. It tolerates
// out-of-order arrival and detects retransmissions by sequence-range
// overlap. Sequence numbers use uint32 arithmetic so wraparound works.
// The zero value is an empty stream, ready to use.
type stream struct {
	started bool
	next    uint32 // next expected sequence number
	// pending holds out-of-order segments keyed by sequence number.
	// Buffered segments are always copied; only lazily allocated since
	// in-order traffic (the overwhelming common case) never buffers.
	pending map[uint32][]byte
	// scratch is reused for the concatenation when a segment unlocks
	// buffered out-of-order data, so drains do not allocate either.
	scratch []byte
}

// seqLess reports whether a precedes b in sequence space (RFC 1982
// style serial comparison).
func seqLess(a, b uint32) bool {
	return int32(a-b) < 0
}

// insert adds a segment and returns the new in-order data it unlocked,
// whether the segment was entirely a retransmission, and whether it
// arrived ahead of a sequence gap and had to be buffered.
func (s *stream) insert(seq uint32, payload []byte) (newData []byte, retransmit, buffered bool) {
	if len(payload) == 0 {
		return nil, false, false
	}
	if !s.started {
		s.started = true
		s.next = seq
	}
	end := seq + uint32(len(payload))
	if !seqLess(s.next, end) {
		// Entire segment is before the reassembly point: retransmit.
		return nil, true, false
	}
	if seqLess(seq, s.next) {
		// Partial overlap: trim the already-delivered prefix. Count it
		// as a retransmission only if most of it was old data.
		trimmed := s.next - seq
		payload = payload[trimmed:]
		seq = s.next
	}
	if seq == s.next {
		s.next = seq + uint32(len(payload))
		if len(s.pending) == 0 {
			// Zero-copy fast path: the segment is in order and unlocks
			// nothing else, so hand the caller's bytes straight back.
			// The returned slice aliases payload and is only valid for
			// the synchronous consumer callback.
			return payload, false, false
		}
		newData = append(s.scratch[:0], payload...)
		// Drain any pending segments that are now contiguous.
		for {
			p, ok := s.takePendingAt(s.next)
			if !ok {
				break
			}
			newData = append(newData, p...)
			s.next += uint32(len(p))
		}
		s.scratch = newData
		return newData, false, false
	}
	// Out of order: buffer unless we already hold this exact range.
	if old, ok := s.pending[seq]; ok && len(old) >= len(payload) {
		return nil, true, false
	}
	if s.pending == nil {
		s.pending = make(map[uint32][]byte)
	}
	s.pending[seq] = append([]byte(nil), payload...)
	return nil, false, true
}

// takePendingAt pops a pending segment whose usable data starts at (or
// before) seq: the one starting there, else of those reaching past seq
// the one starting furthest before it, with the overlap trimmed. One
// pass over pending finds it and drops every segment that ends at or
// before seq, which nothing can use any more.
func (s *stream) takePendingAt(seq uint32) ([]byte, bool) {
	if p, ok := s.pending[seq]; ok {
		delete(s.pending, seq)
		return p, true
	}
	var best uint32
	found := false
	for k, p := range s.pending {
		if !seqLess(k, seq) {
			continue // starts after seq: still ahead of a gap
		}
		if !seqLess(seq, k+uint32(len(p))) {
			delete(s.pending, k) // entirely stale
			continue
		}
		if !found || seq-k > seq-best {
			best, found = k, true
		}
	}
	if !found {
		return nil, false
	}
	p := s.pending[best]
	delete(s.pending, best)
	return p[seq-best:], true
}
