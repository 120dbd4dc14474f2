package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"eplace/internal/metrics"
	"eplace/internal/telemetry"
)

// callCost is what one call into the program cost the process.
type callCost struct {
	wall, cpu float64 // seconds
	alloc     uint64  // bytes, runtime.MemStats.TotalAlloc delta
	mallocs   uint64
	gcCycles  uint32
}

func (c *callCost) add(o callCost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.alloc += o.alloc
	c.mallocs += o.mallocs
	c.gcCycles += o.gcCycles
}

// measureCall times f. The collection before it runs outside the timed
// region, so every call starts from a swept heap whatever ran before.
func measureCall(f func()) callCost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return callCost{
		wall:     wall.Seconds(),
		cpu:      c1 - c0,
		alloc:    m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const mb = 1 << 20

// runConfig is one invocation: one workload, one seed.
type runConfig struct {
	wl       workload
	seed     int64
	seconds  float64
	trace    bool
	workersN int
	// setupReps is how often set-up is repeated for its median, at least;
	// a set-up of milliseconds is repeated more often (see run).
	setupReps int
	// probeCalls caps the calls of each probe (0 = five calls or 200 ms,
	// whichever is more, after a warm-up call).
	probeCalls int
}

// runResult is what a run measured.
type runResult struct {
	attempted, failed int
	failures          []string
	metrics           map[string]summary
	designs           int // designs placed: the workload's, or traceDesigns of them
	turns             int // turns taken: one per design, then more as time allows
	tracer            *tracer
}

// repetition is one placement of one design at one setting: a cold flow,
// or the five ECO edits.
type repetition struct {
	design       int
	workers      int
	traced       bool
	cost         callCost
	hpwl, scaled float64
	ok           bool
	layers       map[string]float64
}

// traceDesigns bounds the design set of a traced run: each design is
// placed twice there (untraced and traced), the first a third time at
// N workers, and the probes need their share of the run.
const traceDesigns = 3

// probeAllowance is the part of a traced run's length left to the probes.
const probeAllowance = 6 * time.Second

type variant struct {
	workers int
	traced  bool
}

// runner holds a run's state between its phases: set-up, turns, reduce.
type runner struct {
	cfg    runConfig
	res    *runResult
	tr     *tracer
	root   *span
	start  time.Time
	insts  []*instance
	ledger digestLedger
	reps   []repetition
	// setup and generate are the seconds of each set-up repetition, and
	// of the synth.Generate calls inside it.
	setup, generate []float64
	// probeOn is the first traced repetition: its final layout is what
	// the probes run on.
	probeOn []placed
}

func run(cfg runConfig) (*runResult, error) {
	r := &runner{cfg: cfg, res: &runResult{metrics: map[string]summary{}}, ledger: digestLedger{}}
	variants := []variant{{1, false}, {cfg.workersN, false}}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		r.tr = newTracer()
		r.res.tracer = r.tr
		r.cfg.wl.designs = min(cfg.wl.designs, traceDesigns)
		r.cfg.setupReps = 1 // setup_s is an end-to-end metric: nothing to repeat for
		variants = []variant{{1, false}, {1, true}}
		budget -= probeAllowance
	}
	r.res.designs = r.cfg.wl.designs
	r.root = r.tr.begin(nil, "workload:"+cfg.wl.name)
	r.start = time.Now()
	if err := r.setUp(); err != nil {
		return nil, err
	}

	// Every design gets one turn, at each setting in variants. After that
	// the designs get further turns, in order, for as long as the next
	// one should still end within the run length. A metric's value is
	// the median over the designs of each design's best turn (see
	// steady), so it never depends on a design that was not placed, and
	// the counts, which are the same in every turn, depend on the seed
	// alone.
	lastTurn := make([]time.Duration, len(r.insts))
turns:
	for pass := 0; ; pass++ {
		for j := range r.insts {
			if pass > 0 && time.Since(r.start)+lastTurn[j] > budget {
				break turns
			}
			turnStart := time.Now()
			for _, v := range variants {
				r.place(j, pass, v)
			}
			if cfg.trace && j == 0 {
				// Once is enough for process.cpu_par_s, which has no bound.
				r.place(j, pass, variant{cfg.workersN, false})
			}
			lastTurn[j] = time.Since(turnStart)
			r.res.turns++
		}
	}
	r.reduce()
	r.tr.end(r.root)
	return r.res, nil
}

// setUp prepares the design set, repeatedly for setup_s; the last set
// is the one placed. Generating a design takes milliseconds, too little
// for three samples to be steady, so a cheap set-up is repeated up to
// five times as often while that costs less than a second in all.
func (r *runner) setUp() error {
	w, reps := &r.cfg.wl, r.cfg.setupReps
	for n := 0; n < reps || (n < 5*reps && time.Since(r.start) < time.Second); n++ {
		sp := r.tr.begin(r.root, "setup")
		r.insts = r.insts[:0]
		runtime.GC()
		t0 := time.Now()
		gen := time.Duration(0)
		for j := 0; j < w.designs; j++ {
			inst, g, err := w.prepare(r.cfg.seed, j, r.cfg.workersN)
			if err != nil {
				return fmt.Errorf("set-up of design %d: %w", j, err)
			}
			gen += g
			r.insts = append(r.insts, inst)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		r.generate = append(r.generate, gen.Seconds())
		r.tr.end(sp)
	}
	return nil
}

// place runs one repetition on design j and verifies what it produced.
// Every placement call is an operation; one that fails takes its whole
// repetition out of the metrics.
func (r *runner) place(j, pass int, v variant) {
	w, inst := &r.cfg.wl, r.insts[j]
	var rec *telemetry.Recorder
	if v.traced {
		rec = telemetry.New()
	}
	placeSpan := r.tr.begin(r.root, fmt.Sprintf("place:design%d/w%d", j, v.workers))
	ps := w.placeOnce(inst, v.workers, rec)
	r.tr.end(placeSpan)

	rep := repetition{design: j, workers: v.workers, traced: v.traced, ok: true}
	verifySpan := r.tr.begin(r.root, "verify")
	for _, p := range ps {
		r.res.attempted++
		err := p.err
		if err == nil {
			err = verifyLayout(p.design, inst.macros, p.hpwl)
		}
		if err == nil {
			err = verifyFrozen(p.design, p.frozen, p.frozenXY)
		}
		if err == nil {
			err = r.ledger.check(fmt.Sprintf("%d/%s", j, p.name), p.digest)
		}
		if err != nil {
			r.res.failed++
			rep.ok = false
			r.res.failures = append(r.res.failures, fmt.Sprintf(
				"FAILED workload=%s seed=%d design=%d pass=%d workers=%d traced=%v edit=%q: %v",
				w.name, r.cfg.seed, j, pass, v.workers, v.traced, p.name, err))
			continue
		}
		rep.cost.add(p.prepare)
		rep.cost.add(p.place)
		rep.hpwl += p.hpwl // verifyLayout found it equal to the recomputed one
		rep.scaled += metrics.ScaledHPWL(p.design, 0)
	}
	r.tr.end(verifySpan)
	if v.traced && rep.ok {
		rep.layers = layerValues(ps, rec, r.tr, placeSpan)
		if r.probeOn == nil {
			r.probeOn = ps
		}
	}
	r.reps = append(r.reps, rep)
}

// pick collects f over the correct repetitions at one setting, grouped
// by design.
func (r *runner) pick(workers int, traced bool, f func(*repetition) float64) [][]float64 {
	out := make([][]float64, len(r.insts))
	for i := range r.reps {
		if rep := &r.reps[i]; rep.ok && rep.workers == workers && rep.traced == traced {
			out[rep.design] = append(out[rep.design], f(rep))
		}
	}
	return out
}

// reduce turns the repetitions into the run's metrics, and in a traced
// run makes the probes.
func (r *runner) reduce() {
	n, m := r.cfg.workersN, r.res.metrics
	wall := func(rep *repetition) float64 { return rep.cost.wall }
	cpu := func(rep *repetition) float64 { return rep.cost.cpu }
	if !r.cfg.trace {
		m["setup_s"] = summarize(r.setup)
		m["place_s"] = steady(r.pick(1, false, wall))
		m["place_par_s"] = steady(r.pick(n, false, wall))
		m["alloc_mb"] = steady(r.pick(1, false, func(rep *repetition) float64 { return float64(rep.cost.alloc) / mb }))
		// Quality is the mean over the design set. Repetitions of one
		// design agree bit for bit (the digest ledger checks it), so one
		// value per design is the whole sample and its spread is nil.
		for name, f := range map[string]func(*repetition) float64{
			"hpwl":        func(rep *repetition) float64 { return rep.hpwl },
			"scaled_hpwl": func(rep *repetition) float64 { return rep.scaled },
		} {
			var v []float64
			for _, d := range r.pick(1, false, f) {
				if len(d) > 0 {
					v = append(v, d[0])
				}
			}
			q := one(mean(v))
			q.N = len(v)
			m[name] = q
		}
		return
	}

	for _, def := range perLayer {
		m[def.Name] = steady(r.pick(1, true, func(rep *repetition) float64 { return rep.layers[def.Name] }))
	}
	untraced, traced := steady(r.pick(1, false, wall)).Median, steady(r.pick(1, true, wall)).Median
	if untraced > 0 {
		m["core.trace_overhead_frac"] = one(traced/untraced - 1)
	}
	m["synth.generate_s"] = summarize(r.generate)
	m["process.cpu_s"] = steady(r.pick(1, false, cpu))
	m["process.cpu_par_s"] = steady(r.pick(n, false, cpu))
	if r.probeOn != nil {
		sp := r.tr.begin(r.root, "probes")
		runProbes(r.cfg, r.insts[0], r.probeOn[len(r.probeOn)-1].design, m, r.tr, sp)
		r.tr.end(sp)
	}
	// Linux reports ru_maxrss in KiB.
	m["process.peak_rss_mb"] = one(float64(rusage().Maxrss) / 1024)
}

// steady reduces a metric's samples, grouped by design, to the run's
// value: the lowest of each design's turns, then the median over the
// designs. Whatever else the machine does can only add to a time, so a
// design's best turn is the one nearest to what the program costs; the
// designs differ in earnest, and the median is theirs.
func steady(byDesign [][]float64) summary {
	var best []float64
	for _, d := range byDesign {
		if len(d) > 0 {
			best = append(best, summarize(d).Min)
		}
	}
	return summarize(best)
}

// one is the summary of a metric measured once in a run.
func one(v float64) summary { return summary{Median: v, Min: v, Max: v, N: 1} }
