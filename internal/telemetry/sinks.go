package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sink receives samples and span records from a Recorder. Writes
// arrive serialized (the Recorder holds its lock), so implementations
// only need internal locking when they are also read concurrently.
type Sink interface {
	Sample(Sample)
	Span(SpanRecord)
	Close() error
}

// TotalsSink is implemented by a Sink that also takes the recorder's
// span aggregates and counters, which Recorder.Close hands it once
// before closing it.
type TotalsSink interface {
	Totals([]SpanTotal, []Counter)
}

// Event is one decoded JSONL line.
type Event struct {
	Type    string      `json:"type"` // "sample", "span", "total" or "counter"
	Sample  *Sample     `json:"sample,omitempty"`
	Span    *SpanRecord `json:"span,omitempty"`
	Total   *SpanTotal  `json:"total,omitempty"`
	Counter *Counter    `json:"counter,omitempty"`
}

// JSONLSink streams events as JSON Lines: one object per line with a
// "type" tag, replayable with ReadJSONL.
type JSONLSink struct {
	buf *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
}

// NewJSONLSink writes events to w. If w is also an io.Closer it is
// closed by Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	buf := bufio.NewWriter(w)
	s := &JSONLSink{buf: buf, enc: json.NewEncoder(buf)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

func (s *JSONLSink) Sample(sm Sample) {
	if s.err == nil {
		s.err = s.enc.Encode(Event{Type: "sample", Sample: &sm})
	}
}

func (s *JSONLSink) Span(sp SpanRecord) {
	if s.err == nil {
		s.err = s.enc.Encode(Event{Type: "span", Span: &sp})
	}
}

// Totals ends the stream with one "total" line per (stage, kernel)
// aggregate and one "counter" line per counter: the values /status
// serves live, which per-call AddSpanTime never streams.
func (s *JSONLSink) Totals(spans []SpanTotal, counters []Counter) {
	for i := range spans {
		if s.err == nil {
			s.err = s.enc.Encode(Event{Type: "total", Total: &spans[i]})
		}
	}
	for i := range counters {
		if s.err == nil {
			s.err = s.enc.Encode(Event{Type: "counter", Counter: &counters[i]})
		}
	}
}

// Close flushes buffered output, closes the underlying writer when it
// is closable, and reports the first error seen on the stream.
func (s *JSONLSink) Close() error {
	if err := s.buf.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// ReadJSONL decodes a JSONL event stream produced by JSONLSink.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

// CSVHeader is the column list of the per-iteration CSV stream, the
// raw data behind the paper's Figure 2.
const CSVHeader = "stage,iter,hpwl,tau,energy,lambda,gamma,alpha,backtracks"

// CSVSink writes one CSV row per sample (span records are skipped:
// CSV is the flat convergence-trace format).
type CSVSink struct {
	buf  *bufio.Writer
	c    io.Closer
	head bool
	err  error
}

// NewCSVSink writes CSV to w, emitting the header before the first
// row. If w is also an io.Closer it is closed by Close.
func NewCSVSink(w io.Writer) *CSVSink {
	s := &CSVSink{buf: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

func (s *CSVSink) Sample(sm Sample) {
	if s.err != nil {
		return
	}
	if !s.head {
		s.head = true
		if _, err := fmt.Fprintln(s.buf, CSVHeader); err != nil {
			s.err = err
			return
		}
	}
	_, s.err = fmt.Fprintf(s.buf, "%s,%d,%.8g,%.6f,%.8g,%.8g,%.8g,%.8g,%d\n",
		sm.Stage, sm.Iteration, sm.HPWL, sm.Overflow, sm.Energy,
		sm.Lambda, sm.Gamma, sm.Alpha, sm.Backtracks)
}

func (s *CSVSink) Span(SpanRecord) {}

func (s *CSVSink) Close() error {
	if !s.head && s.err == nil {
		// Header-only stream so an empty trace is still well-formed CSV.
		if _, err := fmt.Fprintln(s.buf, CSVHeader); err != nil {
			s.err = err
		}
		s.head = true
	}
	if err := s.buf.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// WriteSamplesCSV writes samples in the CSVSink format, header
// included. core.Trace.WriteCSV adapts onto this.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	s := NewCSVSink(struct{ io.Writer }{w}) // hide any Closer: caller owns w
	for _, sm := range samples {
		s.Sample(sm)
	}
	return s.Close()
}

// RingSink keeps the most recent samples and spans in bounded ring
// buffers. It is safe to read while the recorder writes (the status
// endpoint streams recent iterations from it).
type RingSink struct {
	mu      sync.Mutex
	samples []Sample
	spans   []SpanRecord
	si, sn  int
	pi, pn  int
}

// NewRingSink keeps the last n samples and the last n spans (n >= 1).
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{
		samples: make([]Sample, n),
		spans:   make([]SpanRecord, n),
	}
}

func (s *RingSink) Sample(sm Sample) {
	s.mu.Lock()
	s.samples[s.si] = sm
	s.si = (s.si + 1) % len(s.samples)
	if s.sn < len(s.samples) {
		s.sn++
	}
	s.mu.Unlock()
}

func (s *RingSink) Span(sp SpanRecord) {
	s.mu.Lock()
	s.spans[s.pi] = sp
	s.pi = (s.pi + 1) % len(s.spans)
	if s.pn < len(s.spans) {
		s.pn++
	}
	s.mu.Unlock()
}

// Samples returns the retained samples, oldest first.
func (s *RingSink) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.sn)
	start := s.si - s.sn
	if start < 0 {
		start += len(s.samples)
	}
	for i := 0; i < s.sn; i++ {
		out = append(out, s.samples[(start+i)%len(s.samples)])
	}
	return out
}

// Spans returns the retained span records, oldest first.
func (s *RingSink) Spans() []SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanRecord, 0, s.pn)
	start := s.pi - s.pn
	if start < 0 {
		start += len(s.spans)
	}
	for i := 0; i < s.pn; i++ {
		out = append(out, s.spans[(start+i)%len(s.spans)])
	}
	return out
}

func (s *RingSink) Close() error { return nil }

// MultiSink fans events out to several sinks in order.
type MultiSink struct {
	sinks []Sink
}

// Multi combines sinks into one.
func Multi(sinks ...Sink) *MultiSink {
	return &MultiSink{sinks: sinks}
}

func (m *MultiSink) Sample(sm Sample) {
	for _, s := range m.sinks {
		s.Sample(sm)
	}
}

func (m *MultiSink) Span(sp SpanRecord) {
	for _, s := range m.sinks {
		s.Span(sp)
	}
}

func (m *MultiSink) Totals(spans []SpanTotal, counters []Counter) {
	for _, s := range m.sinks {
		if ts, ok := s.(TotalsSink); ok {
			ts.Totals(spans, counters)
		}
	}
}

// Close closes every sink, returning the first error.
func (m *MultiSink) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
