package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventType names the structured events the pipeline journals.
type EventType string

// The event vocabulary. Every journal line carries exactly one of
// these in its "type" field.
const (
	// EventParseError: an APDU failed tolerant parsing.
	EventParseError EventType = "parse_error"
	// EventResync: the framing layer skipped garbage to find a start
	// byte.
	EventResync EventType = "resync"
	// EventSeqAnomaly: an I-frame's N(S) broke the per-direction
	// sequence continuity.
	EventSeqAnomaly EventType = "seq_anomaly"
	// EventTimerFired: a protocol timer (T0-T3 or a deadline derived
	// from one) drove an action.
	EventTimerFired EventType = "timer_fired"
	// EventConnState: a connection changed state (opened, activated,
	// closed, dialect pinned, compliance flip).
	EventConnState EventType = "conn_state"
	// EventSnapshot: the streaming engine published a rolling profile.
	EventSnapshot EventType = "snapshot"
	// EventDrop: the streaming engine shed load (dropped a batch).
	EventDrop EventType = "drop"
	// EventAlert: the online IDS raised an alert.
	EventAlert EventType = "alert"
	// EventHistorianSync: making the historian durable failed (the
	// success path is counted in metrics, not journalled).
	EventHistorianSync EventType = "historian_sync"
	// EventDrift: the rolling profile diverged from the stored
	// baseline profile (one summary event per snapshot comparison,
	// plus one per newly seen finding).
	EventDrift EventType = "drift"
	// EventSpan: a sampled flight-recorder span (stage, lane, timing)
	// drained from the trace rings at snapshot time.
	EventSpan EventType = "span"
	// EventPartial: the control-room service merged a remote probe's
	// posted partial into a tenant's fleet aggregate.
	EventPartial EventType = "partial"
)

// Event is one journal entry.
type Event struct {
	// Time is the event timestamp: capture time for offline analysis,
	// wall time for live endpoints. Zero means "now".
	Time time.Time `json:"ts"`
	// Type is the event's kind.
	Type EventType `json:"type"`
	// Conn identifies the connection or endpoint involved, when one
	// is (e.g. "10.0.0.1:33012>10.0.1.30:2404" or a station name).
	Conn string `json:"conn,omitempty"`
	// Attrs carries event-specific fields. Keys marshal sorted, so
	// journal lines are deterministic for a deterministic input.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// journalQueueMax bounds the pending-line queue. When the writer
// cannot keep up (slow disk, blocked pipe), further events are counted
// and dropped rather than stalling the pipeline.
const journalQueueMax = 1024

// Journal is an append-only JSONL event log. Events are encoded on
// the calling goroutine (order and key determinism are preserved) but
// written by a background goroutine behind a bounded queue, so a slow
// or blocked writer never stalls the hot path: once the queue is full,
// events are dropped and counted (Dropped). A nil *Journal is a valid
// no-op sink, so instrumented code can log unconditionally.
type Journal struct {
	mu   sync.Mutex
	cond *sync.Cond
	w    io.Writer

	queue    [][]byte
	inflight bool
	counts   map[EventType]int64
	dropped  int64
	// writeErr remembers the first write failure; later events are
	// counted but dropped.
	writeErr error
}

// NewJournal writes events to w as one JSON object per line. Callers
// own w's lifecycle (and any buffering/flushing); call Flush (or Err,
// which flushes) before tearing w down.
func NewJournal(w io.Writer) *Journal {
	j := &Journal{w: w, counts: make(map[EventType]int64)}
	j.cond = sync.NewCond(&j.mu)
	go j.writer()
	return j
}

// writer drains the queue for the journal's lifetime. It holds no
// lock while writing, so Log never waits on w.
func (j *Journal) writer() {
	j.mu.Lock()
	for {
		for len(j.queue) == 0 {
			j.cond.Wait()
		}
		lines := j.queue
		j.queue = nil
		j.inflight = true
		err := j.writeErr
		j.mu.Unlock()
		if err == nil {
			for _, line := range lines {
				if _, werr := j.w.Write(line); werr != nil {
					err = werr
					break
				}
			}
		}
		j.mu.Lock()
		if err != nil && j.writeErr == nil {
			j.writeErr = err
		}
		j.inflight = false
		j.cond.Broadcast()
	}
}

// Log appends one event. Safe on a nil journal. A zero ts is replaced
// with the current wall time. Log never blocks on the underlying
// writer: if the queue is full the event is dropped and counted.
func (j *Journal) Log(ts time.Time, typ EventType, conn string, attrs map[string]any) {
	if j == nil {
		return
	}
	if ts.IsZero() {
		ts = time.Now()
	}
	line, encErr := json.Marshal(Event{Time: ts.UTC(), Type: typ, Conn: conn, Attrs: attrs})
	j.mu.Lock()
	defer j.mu.Unlock()
	j.counts[typ]++
	if encErr != nil || j.writeErr != nil {
		return
	}
	if len(j.queue) >= journalQueueMax {
		j.dropped++
		return
	}
	j.queue = append(j.queue, append(line, '\n'))
	j.cond.Broadcast()
}

// Flush blocks until every queued event has been handed to the
// underlying writer (or the writer failed). Nil-safe. Flush does not
// return while the writer is wedged inside a blocking Write; it is a
// shutdown/teardown aid, not a hot-path call.
func (j *Journal) Flush() {
	if j == nil {
		return
	}
	j.mu.Lock()
	for (len(j.queue) > 0 || j.inflight) && j.writeErr == nil {
		j.cond.Wait()
	}
	j.mu.Unlock()
}

// Counts returns how many events of each type were logged (including
// any dropped by a write error or a full queue). Nil-safe.
func (j *Journal) Counts() map[EventType]int64 {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[EventType]int64, len(j.counts))
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

// Dropped returns how many events were shed because the writer fell
// behind (queue full). Events lost to a write error are not included
// here — those surface through Err. Nil-safe.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Err flushes the queue and returns the first write error, if any.
// Nil-safe.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.Flush()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeErr
}
