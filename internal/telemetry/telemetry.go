// Package telemetry is the structured observability layer of the
// placement flow: per-iteration Samples (the raw data behind the
// paper's Fig. 2/3 convergence traces), hierarchical stage/kernel span
// aggregates (the Fig. 7 runtime breakdown), named counters, pluggable
// sinks (JSONL, CSV, bounded ring, fanout) and a live HTTP status
// endpoint.
//
// The central type is Recorder. A nil *Recorder is the canonical
// disabled state: every method is nil-safe and a no-op that performs
// zero allocations, so instrumented code never branches on "telemetry
// on?" and the hot path costs nothing when observability is off.
//
// Concurrency contract: all Recorder methods are safe for concurrent
// use from multiple goroutines (the gradient kernels shard across a
// worker pool). Sinks are invoked with the Recorder's lock held, so a
// Sink implementation needs no locking of its own for writes; sinks
// that are also read from other goroutines (RingSink serving the
// status endpoint) guard their reads internally.
//
// Recording never influences placement results: every instrumentation
// point only reads optimizer state, so placements are bitwise-identical
// with telemetry enabled or disabled (asserted by the core tests).
package telemetry

import (
	"sync"
	"time"
)

// Sample is one per-iteration record of an optimization stage. GP
// stages (mGP, cGP) populate every field; coarser stages (mIP, mLG,
// cDP, baseline placers) fill the subset that applies and leave the
// rest zero.
type Sample struct {
	// Stage labels the flow stage ("mIP", "mGP", "mLG", "cGP-filler",
	// "cGP", "cDP", or a baseline placer name).
	Stage string `json:"stage"`
	// Iteration counts from 0 within the stage.
	Iteration int `json:"iter"`
	// HPWL is the half-perimeter wirelength after the iteration.
	HPWL float64 `json:"hpwl"`
	// Overflow is the density overflow tau (Fig. 2's second axis).
	Overflow float64 `json:"tau"`
	// Energy is the eDensity potential energy N(v).
	Energy float64 `json:"energy,omitempty"`
	// Lambda and Gamma are the penalty and smoothing schedule values.
	Lambda float64 `json:"lambda,omitempty"`
	Gamma  float64 `json:"gamma,omitempty"`
	// Alpha is the accepted steplength.
	Alpha float64 `json:"alpha,omitempty"`
	// Backtracks is the BkTrk count of this iteration.
	Backtracks int `json:"backtracks,omitempty"`
	// Steps and Restarts are the optimizer's cumulative step and
	// adaptive-restart counts (nesterov accessor methods).
	Steps    int `json:"steps,omitempty"`
	Restarts int `json:"restarts,omitempty"`
	// GradWL and GradDensity are L1 norms of the wirelength and density
	// gradients at the last evaluation point.
	GradWL      float64 `json:"grad_wl,omitempty"`
	GradDensity float64 `json:"grad_density,omitempty"`
	// Overlap is stage-specific overlap area (mLG's Om metric).
	Overlap float64 `json:"overlap,omitempty"`
	// WirelengthTime and DensityTime are this iteration's kernel wall
	// times in nanoseconds (all gradient evaluations, including
	// backtracking re-evaluations).
	WirelengthTime time.Duration `json:"wl_ns,omitempty"`
	DensityTime    time.Duration `json:"density_ns,omitempty"`
}

// SpanRecord is one completed stage or kernel span as emitted to
// sinks. Kernel spans nest under their stage: Stage "mGP" with Kernel
// "density" is the density-gradient kernel of the mGP stage; Kernel ""
// is the stage itself.
type SpanRecord struct {
	Stage  string `json:"stage"`
	Kernel string `json:"kernel,omitempty"`
	// Start is the offset from recorder creation.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// Path returns "stage" or "stage/kernel".
func (s SpanRecord) Path() string {
	if s.Kernel == "" {
		return s.Stage
	}
	return s.Stage + "/" + s.Kernel
}

// SpanTotal is one aggregated (stage, kernel) span.
type SpanTotal struct {
	Stage   string  `json:"stage"`
	Kernel  string  `json:"kernel,omitempty"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// spanKey identifies an aggregate without string concatenation, so the
// per-gradient-call hot path stays allocation-free.
type spanKey struct{ stage, kernel string }

type spanAgg struct {
	total time.Duration
	count int64
}

// Counter is one named counter value.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time view of a Recorder, served by the status
// endpoint.
type Snapshot struct {
	UptimeSeconds float64     `json:"uptime_seconds"`
	Stage         string      `json:"stage"`
	Iteration     int         `json:"iter"`
	HPWL          float64     `json:"hpwl"`
	Overflow      float64     `json:"tau"`
	Lambda        float64     `json:"lambda"`
	Samples       int64       `json:"samples"`
	Workers       int         `json:"workers"`
	Spans         []SpanTotal `json:"spans"`
	Counters      []Counter   `json:"counters"`
}

// Recorder collects samples, span aggregates and counters, and fans
// them out to sinks. The zero value is not usable; call New. A nil
// *Recorder is valid and turns every method into a zero-allocation
// no-op.
type Recorder struct {
	mu      sync.Mutex
	start   time.Time
	sinks   []Sink
	workers int

	stage   string
	iter    int
	last    Sample
	samples int64

	spans     map[spanKey]*spanAgg
	spanOrder []spanKey

	counters     map[string]int64
	counterOrder []string
}

// New creates a Recorder fanning out to sinks (none is valid: the
// recorder then only aggregates spans and counters, which is how the
// engine derives its timing breakdown when telemetry is off).
func New(sinks ...Sink) *Recorder {
	return &Recorder{
		start:    time.Now(),
		sinks:    sinks,
		spans:    map[spanKey]*spanAgg{},
		counters: map[string]int64{},
	}
}

// Active reports whether r records anything (false for nil). Use it to
// gate instrumentation whose inputs are expensive to compute (an extra
// HPWL evaluation, say); cheap reads can call the nil-safe methods
// unconditionally.
func (r *Recorder) Active() bool { return r != nil }

// Emitting reports whether r has at least one sink attached.
func (r *Recorder) Emitting() bool {
	return r != nil && len(r.sinks) > 0
}

// SetWorkers records the gradient-kernel worker count for snapshots.
func (r *Recorder) SetWorkers(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.workers = n
	r.mu.Unlock()
}

// Sample records one per-iteration sample and forwards it to sinks.
func (r *Recorder) Sample(s Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stage = s.Stage
	r.iter = s.Iteration
	r.last = s
	r.samples++
	for _, sk := range r.sinks {
		sk.Sample(s)
	}
	r.mu.Unlock()
}

// SetStage updates the current stage label without emitting a sample
// (stages like mIP report progress before their first sample exists).
func (r *Recorder) SetStage(stage string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stage = stage
	r.mu.Unlock()
}

// AddSpanTime adds d to the (stage, kernel) aggregate without emitting
// a sink event. This is the per-gradient-call hot path: kernel wall
// times appear in every Sample already, so streaming a span event per
// call would only bloat the JSONL.
func (r *Recorder) AddSpanTime(stage, kernel string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.addSpanLocked(stage, kernel, d)
	r.mu.Unlock()
}

// EmitSpan adds d to the (stage, kernel) aggregate and emits a
// SpanRecord event to sinks, with the span assumed to have just ended.
func (r *Recorder) EmitSpan(stage, kernel string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.addSpanLocked(stage, kernel, d)
	end := time.Since(r.start)
	start := end - d
	if start < 0 {
		start = 0
	}
	rec := SpanRecord{Stage: stage, Kernel: kernel, Start: start, Dur: d}
	for _, sk := range r.sinks {
		sk.Span(rec)
	}
	r.mu.Unlock()
}

func (r *Recorder) addSpanLocked(stage, kernel string, d time.Duration) {
	k := spanKey{stage, kernel}
	agg := r.spans[k]
	if agg == nil {
		agg = &spanAgg{}
		r.spans[k] = agg
		r.spanOrder = append(r.spanOrder, k)
	}
	agg.total += d
	agg.count++
}

// SpanTime returns the aggregated duration of (stage, kernel); kernel
// "" addresses the stage span itself.
func (r *Recorder) SpanTime(stage, kernel string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if agg := r.spans[spanKey{stage, kernel}]; agg != nil {
		return agg.total
	}
	return 0
}

// SpanTotals returns every span aggregate in first-seen order.
func (r *Recorder) SpanTotals() []SpanTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spanTotalsLocked()
}

func (r *Recorder) spanTotalsLocked() []SpanTotal {
	out := make([]SpanTotal, 0, len(r.spanOrder))
	for _, k := range r.spanOrder {
		agg := r.spans[k]
		out = append(out, SpanTotal{
			Stage: k.stage, Kernel: k.kernel,
			Seconds: agg.total.Seconds(), Count: agg.count,
		})
	}
	return out
}

// Count adds delta to the named counter.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.counters[name]; !ok {
		r.counterOrder = append(r.counterOrder, name)
	}
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counters returns every counter in first-seen order.
func (r *Recorder) Counters() []Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.countersLocked()
}

func (r *Recorder) countersLocked() []Counter {
	out := make([]Counter, 0, len(r.counterOrder))
	for _, name := range r.counterOrder {
		out = append(out, Counter{Name: name, Value: r.counters[name]})
	}
	return out
}

// Samples returns how many samples have been recorded.
func (r *Recorder) Samples() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples
}

// Snapshot returns a point-in-time view for the status endpoint.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Stage:         r.stage,
		Iteration:     r.iter,
		HPWL:          r.last.HPWL,
		Overflow:      r.last.Overflow,
		Lambda:        r.last.Lambda,
		Samples:       r.samples,
		Workers:       r.workers,
		Spans:         r.spanTotalsLocked(),
		Counters:      r.countersLocked(),
	}
}

// Close hands the span aggregates and counters to every TotalsSink,
// then flushes and closes every sink, returning the first error. A
// second Close does nothing.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, sk := range r.sinks {
		if ts, ok := sk.(TotalsSink); ok {
			ts.Totals(r.spanTotalsLocked(), r.countersLocked())
		}
		if err := sk.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.sinks = nil
	return first
}
