package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJournalSchema checks the JSONL line shape: one object per line
// with ts/type/conn/attrs, timestamps in UTC.
func TestJournalSchema(t *testing.T) {
	var b strings.Builder
	j := NewJournal(&b)
	ts := time.Date(2026, 7, 5, 9, 0, 0, 0, time.FixedZone("x", 3600))
	j.Log(ts, EventResync, "10.0.0.1:1>10.0.1.2:2404", map[string]any{"skipped_bytes": 3})
	j.Log(time.Time{}, EventConnState, "10.0.1.2:2404", nil)
	j.Flush()

	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if e.Type != EventResync || e.Conn != "10.0.0.1:1>10.0.1.2:2404" {
		t.Errorf("event = %+v", e)
	}
	if e.Attrs["skipped_bytes"] != float64(3) {
		t.Errorf("attrs = %v", e.Attrs)
	}
	if e.Time.Location() != time.UTC || !e.Time.Equal(ts) {
		t.Errorf("time = %v, want %v UTC", e.Time, ts)
	}
	var e2 Event
	if err := json.Unmarshal([]byte(lines[1]), &e2); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if e2.Time.IsZero() {
		t.Error("zero event time not replaced with wall time")
	}

	counts := j.Counts()
	if counts[EventResync] != 1 || counts[EventConnState] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// TestJournalNil checks that a nil journal accepts all calls.
func TestJournalNil(t *testing.T) {
	var j *Journal
	j.Log(time.Now(), EventParseError, "x", nil)
	j.Flush()
	if j.Counts() != nil || j.Err() != nil || j.Dropped() != 0 {
		t.Error("nil journal should return nil counts, nil error, zero drops")
	}
}

// failingWriter fails every write after the first.
type failingWriter struct {
	n int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestJournalWriteError checks that the first write error sticks and
// later events still count.
func TestJournalWriteError(t *testing.T) {
	j := NewJournal(&failingWriter{})
	j.Log(time.Now(), EventResync, "", nil)
	j.Log(time.Now(), EventResync, "", nil)
	j.Log(time.Now(), EventResync, "", nil)
	if j.Err() == nil {
		t.Fatal("write error not recorded")
	}
	if j.Counts()[EventResync] != 3 {
		t.Errorf("counts = %v, want resync=3", j.Counts())
	}
}

// TestJournalConcurrent interleaves writers; run with -race.
func TestJournalConcurrent(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	j := NewJournal(lockedWriter)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.Log(time.Now(), EventSeqAnomaly, "c", map[string]any{"i": i})
			}
		}()
	}
	wg.Wait()
	j.Flush()
	mu.Lock()
	defer mu.Unlock()
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("lines = %d, want 800", len(lines))
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("interleaved line is not valid JSON: %q", l)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestJournalSlowWriterDrops: a writer wedged inside Write must not
// stall Log — the queue fills, further events drop and are counted.
func TestJournalSlowWriterDrops(t *testing.T) {
	release := make(chan struct{})
	var wrote sync.WaitGroup
	wrote.Add(1)
	var once sync.Once
	blocked := writerFunc(func(p []byte) (int, error) {
		once.Do(wrote.Done)
		<-release // wedge until the test lets go
		return len(p), nil
	})
	j := NewJournal(blocked)

	// Wedge the writer on the first line, then overrun the queue.
	j.Log(time.Now(), EventResync, "", nil)
	wrote.Wait()
	const extra = 200
	start := time.Now()
	for i := 0; i < journalQueueMax+extra; i++ {
		j.Log(time.Now(), EventSeqAnomaly, "c", map[string]any{"i": i})
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Log stalled behind a blocked writer: %v for %d events", elapsed, journalQueueMax+extra)
	}

	if d := j.Dropped(); d < extra {
		t.Errorf("dropped = %d, want >= %d (queue bound %d)", d, extra, journalQueueMax)
	}
	counts := j.Counts()
	if counts[EventSeqAnomaly] != journalQueueMax+extra {
		t.Errorf("counts = %v: dropped events must still be counted", counts)
	}

	close(release) // unwedge; the queued tail drains
	j.Flush()
	if j.Err() != nil {
		t.Fatalf("unexpected write error: %v", j.Err())
	}
}
