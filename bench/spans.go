package bench

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one timed interval of a traced rep, as written to spans.jsonl.
// Times are nanoseconds since the child process started its rep; Parent is 0
// for a root span.
type Span struct {
	Name    string         `json:"name"`
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps a rep's spans in memory until the rep ends. Spans are
// recorded around the benchmark's own calls into the simulator, so they cost
// nothing inside the program.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span starting now and returns its ID.
func (l *spanLog) begin(name string, parent int, attrs map[string]any) int {
	return l.add(name, parent, time.Now(), time.Time{}, attrs)
}

// end closes the span with the given ID at the current time.
func (l *spanLog) end(id int) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndNS = now.Sub(l.t0).Nanoseconds()
}

// add records a span whose bounds were measured elsewhere and returns its
// ID; a zero end leaves the span open for end.
func (l *spanLog) add(name string, parent int, start, end time.Time, attrs map[string]any) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Span{Name: name, ID: len(l.spans) + 1, Parent: parent,
		StartNS: start.Sub(l.t0).Nanoseconds(), Attrs: attrs}
	if !end.IsZero() {
		s.EndNS = end.Sub(l.t0).Nanoseconds()
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// writeSpans emits spans as JSON lines, shifting IDs by offset so the spans
// of several reps can share one file.
func writeSpans(w io.Writer, spans []Span, offset int) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		s.ID += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
