package protocol

import "bytes"

// NoSync is the Framing.Sync of a dialect whose frames open with no
// fixed byte (MBAP): Next tries a head at every offset.
const NoSync = -1

// Framing is a dialect's head rule, declared once as a package-level
// value: all the one resync loop, Next, needs to cut its frames.
type Framing struct {
	Sync int // the byte every frame opens with, or NoSync
	Head int // how many bytes Length reads
	Max  int // the longest frame Length returns
	// Length returns the length of the frame head opens, at least Head,
	// or 0 when head is implausible. head is Head bytes and opens with
	// Sync.
	Length func(head []byte) int
}

// Next is the one resync loop every session frames through. It scans
// to the sync byte and waits for a head, drops an implausible head one
// byte at a time and scans on, then waits for the body. It returns the
// frame, the tail after it (aliasing buf) and the bytes it skipped.
// ok=false means only that more bytes are needed: rest, shorter than
// Max, is then at most a head and what arrived of its body.
func (f *Framing) Next(buf []byte) (frame, rest []byte, skipped int, ok bool) {
	for {
		if f.Sync != NoSync {
			i := bytes.IndexByte(buf, byte(f.Sync))
			if i < 0 {
				i = len(buf)
			}
			skipped += i
			buf = buf[i:]
		}
		if len(buf) < f.Head {
			return nil, buf, skipped, false
		}
		n := f.Length(buf[:f.Head])
		if n == 0 {
			buf = buf[1:]
			skipped++
			continue
		}
		if len(buf) < n {
			return nil, buf, skipped, false
		}
		return buf[:n], buf[n:], skipped, true
	}
}

// Plausible reports whether b opens with a head Next would frame.
func (f *Framing) Plausible(b []byte) bool {
	return len(b) >= f.Head && (f.Sync == NoSync || b[0] == byte(f.Sync)) && f.Length(b[:f.Head]) > 0
}
