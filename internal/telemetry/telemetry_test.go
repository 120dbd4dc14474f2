package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"eplace/internal/parallel"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Active() || r.Emitting() {
		t.Error("nil recorder reports active")
	}
	r.Sample(Sample{Stage: "mGP"})
	r.AddSpanTime("mGP", "density", time.Second)
	r.EmitSpan("mGP", "", time.Second)
	r.Count("x", 1)
	r.SetWorkers(4)
	r.SetStage("mGP")
	if r.SpanTime("mGP", "density") != 0 || r.Samples() != 0 {
		t.Error("nil recorder retained data")
	}
	if got := r.Snapshot(); got.Samples != 0 {
		t.Errorf("nil snapshot = %+v", got)
	}
	if r.SpanTotals() != nil || r.Counters() != nil {
		t.Error("nil recorder returned aggregates")
	}
	if err := r.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// The disabled (nil) recorder must be a zero-allocation no-op on every
// hot-path method (ISSUE acceptance criterion).
func TestNoopRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	s := Sample{Stage: "mGP", Iteration: 3, HPWL: 1e6}
	if n := testing.AllocsPerRun(1000, func() { r.Sample(s) }); n != 0 {
		t.Errorf("nil Sample allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { r.AddSpanTime("mGP", "density", 1) }); n != 0 {
		t.Errorf("nil AddSpanTime allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { r.Count("grad_evals", 1) }); n != 0 {
		t.Errorf("nil Count allocates %v per call", n)
	}
}

func BenchmarkNoopRecorderSample(b *testing.B) {
	var r *Recorder
	s := Sample{Stage: "mGP", Iteration: 3, HPWL: 1e6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Sample(s)
	}
}

func BenchmarkRecorderSampleNoSinks(b *testing.B) {
	r := New()
	s := Sample{Stage: "mGP", HPWL: 1e6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Iteration = i
		r.Sample(s)
	}
}

// Concurrent use from sharded kernels: every worker of the PR-1 pool
// hammers samples, span aggregates and counters while another
// goroutine reads snapshots. Run under -race in CI.
func TestConcurrentRecorderFromShardedKernels(t *testing.T) {
	ring := NewRingSink(64)
	r := New(ring)
	const n = 4096
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
				r.SpanTotals()
				ring.Samples()
			}
		}
	}()
	parallel.For(8, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r.AddSpanTime("mGP", "density", time.Nanosecond)
			r.AddSpanTime("mGP", "wirelength", 2*time.Nanosecond)
			r.Count("engine/grad_evals", 1)
			r.Sample(Sample{Stage: "mGP", Iteration: i, HPWL: float64(i)})
		}
	})
	close(done)
	wg.Wait()

	if got := r.Samples(); got != n {
		t.Errorf("samples = %d, want %d", got, n)
	}
	if got := r.SpanTime("mGP", "density"); got != n*time.Nanosecond {
		t.Errorf("density span = %v, want %v", got, n*time.Nanosecond)
	}
	if got := r.SpanTime("mGP", "wirelength"); got != 2*n*time.Nanosecond {
		t.Errorf("wirelength span = %v", got)
	}
	cs := r.Counters()
	if len(cs) != 1 || cs[0].Value != n {
		t.Errorf("counters = %+v", cs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := New(NewJSONLSink(&buf))
	in := []Sample{
		{Stage: "mGP", Iteration: 0, HPWL: 123.5, Overflow: 0.8, Energy: 2.5,
			Lambda: 1e-4, Gamma: 9, Alpha: 0.5, Backtracks: 1, Steps: 1,
			GradWL: 10, GradDensity: 20, WirelengthTime: 1500, DensityTime: 2500},
		{Stage: "cGP", Iteration: 1, HPWL: 99, Overflow: 0.1, Restarts: 2, Overlap: 3.5},
	}
	for _, s := range in {
		r.Sample(s)
	}
	r.AddSpanTime("mGP", "density", 2*time.Millisecond)
	r.AddSpanTime("mGP", "wirelength", time.Millisecond)
	r.AddSpanTime("mGP", "density", 3*time.Millisecond)
	r.EmitSpan("mGP", "", 5*time.Millisecond)
	r.Count("mGP/backtracks", 3)
	r.Count("cDP/passes", 2)
	r.Count("mGP/backtracks", 1)
	totals, counters := r.SpanTotals(), r.Counters()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is what hands over the totals, and it does so once.
	closed := buf.Len()
	if err := r.Close(); err != nil || buf.Len() != closed {
		t.Fatalf("second Close: err %v, wrote %d bytes", err, buf.Len()-closed)
	}

	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3+len(totals)+len(counters) || len(totals) != 3 || len(counters) != 2 {
		t.Fatalf("events = %d with %d totals and %d counters, want 8, 3 and 2",
			len(events), len(totals), len(counters))
	}
	for i, want := range totals {
		if ev := events[3+i]; ev.Type != "total" || ev.Total == nil || *ev.Total != want {
			t.Errorf("event %d = %+v, want total %+v", 3+i, ev, want)
		}
	}
	if totals[0] != (SpanTotal{Stage: "mGP", Kernel: "density", Seconds: 0.005, Count: 2}) {
		t.Errorf("density total = %+v", totals[0])
	}
	for i, want := range counters {
		if ev := events[6+i]; ev.Type != "counter" || ev.Counter == nil || *ev.Counter != want {
			t.Errorf("event %d = %+v, want counter %+v", 6+i, ev, want)
		}
	}
	if counters[0] != (Counter{Name: "mGP/backtracks", Value: 4}) {
		t.Errorf("backtracks counter = %+v", counters[0])
	}
	for i, want := range in {
		if events[i].Type != "sample" || events[i].Sample == nil {
			t.Fatalf("event %d = %+v, want sample", i, events[i])
		}
		if !reflect.DeepEqual(*events[i].Sample, want) {
			t.Errorf("sample %d round trip:\n got %+v\nwant %+v", i, *events[i].Sample, want)
		}
	}
	sp := events[2]
	if sp.Type != "span" || sp.Span == nil {
		t.Fatalf("event 2 = %+v, want span", sp)
	}
	if sp.Span.Stage != "mGP" || sp.Span.Dur != 5*time.Millisecond {
		t.Errorf("span = %+v", *sp.Span)
	}
	if sp.Span.Path() != "mGP" {
		t.Errorf("span path = %q", sp.Span.Path())
	}
}

func TestCSVSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf)
	s.Sample(Sample{Stage: "mGP", Iteration: 0, HPWL: 100, Overflow: 0.9})
	s.Span(SpanRecord{Stage: "mGP"}) // ignored
	s.Sample(Sample{Stage: "cGP", Iteration: 1, HPWL: 90, Overflow: 0.2, Backtracks: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != CSVHeader {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "mGP,0,100") || !strings.HasPrefix(lines[2], "cGP,1,90") {
		t.Errorf("rows:\n%s", buf.String())
	}

	// An empty stream still yields the header.
	buf.Reset()
	if err := NewCSVSink(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != CSVHeader {
		t.Errorf("empty CSV = %q", buf.String())
	}
}

func TestRingSinkBounded(t *testing.T) {
	ring := NewRingSink(4)
	for i := 0; i < 10; i++ {
		ring.Sample(Sample{Iteration: i})
		ring.Span(SpanRecord{Stage: "mGP", Dur: time.Duration(i)})
	}
	got := ring.Samples()
	if len(got) != 4 {
		t.Fatalf("retained %d samples, want 4", len(got))
	}
	for i, s := range got {
		if s.Iteration != 6+i {
			t.Errorf("sample %d iteration = %d, want %d (oldest first)", i, s.Iteration, 6+i)
		}
	}
	spans := ring.Spans()
	if len(spans) != 4 || spans[0].Dur != 6 || spans[3].Dur != 9 {
		t.Errorf("spans = %+v", spans)
	}
}

func TestMultiSinkFanout(t *testing.T) {
	a, b := NewRingSink(8), NewRingSink(8)
	var buf bytes.Buffer
	r := New(Multi(a, b, NewJSONLSink(&buf)))
	r.Sample(Sample{Stage: "mGP", Iteration: 7})
	r.EmitSpan("mGP", "density", time.Second)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The totals handed over at Close reach the sink behind the fanout.
	if n := strings.Count(buf.String(), `"type":"total"`); n != 1 {
		t.Errorf("JSONL behind Multi got %d totals, want 1:\n%s", n, buf.String())
	}
	for i, ring := range []*RingSink{a, b} {
		if n := len(ring.Samples()); n != 1 {
			t.Errorf("sink %d got %d samples", i, n)
		}
		if n := len(ring.Spans()); n != 1 {
			t.Errorf("sink %d got %d spans", i, n)
		}
	}
}

func TestSpanAggregationOrderAndSnapshot(t *testing.T) {
	r := New()
	r.SetWorkers(8)
	r.EmitSpan("mIP", "", 2*time.Second)
	r.AddSpanTime("mGP", "wirelength", time.Second)
	r.AddSpanTime("mGP", "density", 3*time.Second)
	r.AddSpanTime("mGP", "density", time.Second)
	r.Sample(Sample{Stage: "mGP", Iteration: 41, HPWL: 5, Overflow: 0.3, Lambda: 2})

	totals := r.SpanTotals()
	want := []SpanTotal{
		{Stage: "mIP", Seconds: 2, Count: 1},
		{Stage: "mGP", Kernel: "wirelength", Seconds: 1, Count: 1},
		{Stage: "mGP", Kernel: "density", Seconds: 4, Count: 2},
	}
	if !reflect.DeepEqual(totals, want) {
		t.Errorf("totals:\n got %+v\nwant %+v", totals, want)
	}
	if got := r.SpanTime("mGP", "density"); got != 4*time.Second {
		t.Errorf("SpanTime = %v", got)
	}

	snap := r.Snapshot()
	if snap.Stage != "mGP" || snap.Iteration != 41 || snap.HPWL != 5 ||
		snap.Overflow != 0.3 || snap.Lambda != 2 || snap.Workers != 8 || snap.Samples != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if !reflect.DeepEqual(snap.Spans, want) {
		t.Errorf("snapshot spans = %+v", snap.Spans)
	}
}

func TestWriteSamplesCSVDoesNotCloseWriter(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, []Sample{{Stage: "mGP", HPWL: 1}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mGP,0,1") {
		t.Errorf("csv = %q", buf.String())
	}
}
