package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one node of the benchmark's trace tree. Spans the benchmark
// opens around its own calls carry start and end; spans folded in from
// the program's recorder (stage times, kernel totals) are aggregates
// and carry only a duration and a call count.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s,omitempty"` // since the trace began
	End    float64 `json:"end_s,omitempty"`
	Dur    float64 `json:"dur_s"`
	Count  int64   `json:"count,omitempty"`
	Folded bool    `json:"folded,omitempty"`
	// Counters are the recorder's counters, attached to the place span.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory; nothing is written before the run ends.
// A nil tracer records nothing, so untraced runs pay nothing.
type tracer struct {
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (nil for the root).
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Name: name, Start: time.Since(t.t0).Seconds()}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.End = time.Since(t.t0).Seconds()
	s.Dur = s.End - s.Start
}

// fold adds an aggregate child: time the program accounted for itself.
func (t *tracer) fold(parent *span, name string, seconds float64, count int64) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Parent: parent.ID, Name: name, Dur: seconds, Count: count, Folded: true}
	t.spans = append(t.spans, s)
	return s
}

// write emits one JSON object per line, parents before children.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
