// Package parallel provides the shared fork-join primitive used by the
// per-iteration gradient kernels (WA wirelength, eDensity rasterization
// and force integration, spectral Poisson transforms) and the engine's
// elementwise loops: static contiguous range sharding over a persistent
// worker team, with panic propagation.
//
// One gradient evaluation makes about fifteen For calls, each a few to a
// few hundred microseconds of work. Spawning fresh goroutines per call,
// with an idle processor to wake each time, ate the parallel gain on a
// 2-vCPU box: paired 1-vs-2-worker spans of the flat 5K flow ran the
// Poisson solve at 0.82×, density at 1.09× and WA at 1.37×, while a
// plain two-goroutine compute loop on the same box scaled 1.9×. So For
// runs its shards on a team of helper goroutines that outlive the call:
// a helper that has just finished a shard spins (yielding the processor
// as it spins) for a bounded time waiting for the next one, then parks.
// Back-to-back calls therefore hand work to a running helper through one
// atomic store. The caller runs shard 0 and then claims every shard no
// helper has claimed yet, so a helper that the Go scheduler or the
// host's hypervisor has not run yet costs the call only its share of
// the parallelism. Static sharding (one contiguous index range per
// worker) keeps every worker's memory traffic sequential and fixes the
// shard -> worker id mapping, whichever goroutine claims the shard: the
// callers rely on that for per-worker scratch buffers.
//
// Determinism contract: For itself imposes no ordering between shards;
// callers that reduce across shards must do so in a fixed order that is
// independent of the worker count (see wirelength and grid for the two
// reduction patterns used in this repo) so that results are
// bitwise-identical for every Workers setting.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Count resolves a Workers option: values <= 0 select all available
// cores (runtime.GOMAXPROCS(0)); positive values are returned unchanged.
func Count(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// WorkerPanic is the value For re-panics on the calling goroutine when
// a shard panics: the shard's recovered value plus the stack trace
// captured where it panicked, at recover time. Re-panicking raw would
// print the *caller's* stack — every pool panic would point at the join
// instead of the kernel shard that blew up, which is undebuggable once
// panics surface in server logs rather than a terminal.
type WorkerPanic struct {
	// Value is the worker's original panic value.
	Value any
	// Stack is the panicking goroutine's stack at recover time
	// (runtime/debug.Stack).
	Stack []byte
}

// Error renders the original panic value followed by the worker stack,
// so both the runtime's panic output and log captures show where the
// shard actually failed.
func (p WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker stack:\n%s", p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As keep working through a recover-and-inspect.
func (p WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// For splits the index range [0, n) into one contiguous shard per worker
// (chunk = ⌈n/workers⌉) and runs fn(worker, lo, hi) for every non-empty
// shard concurrently. Worker ids passed to fn are dense in
// [0, min(workers, n)), so callers may index per-worker scratch by them.
// With workers <= 1 (or n == 1) fn runs inline on the calling goroutine:
// no other goroutine is involved and the call is exactly the serial loop.
//
// Above one worker the caller runs shard 0 itself, and the package's
// worker team and the caller claim the rest. A For that finds the team
// busy — nested in a shard, or called concurrently from another
// goroutine — or that asks for more than maxTeam workers spawns one
// goroutine per shard instead, with the same shards and contract.
//
// If any shard panics, For waits for the remaining shards and then
// re-panics the first recovered value on the calling goroutine, wrapped
// in a WorkerPanic that carries the stack of the goroutine that panicked
// (the inline workers <= 1 path panics straight through and needs no
// wrapping: the caller's stack IS the worker's stack there).
func For(workers, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	if workers > maxTeam || !crew.busy.CompareAndSwap(false, true) {
		spawn(workers, n, fn)
		return
	}
	crew.run(workers, n, fn)
}

// spawn is For on fresh goroutines, one per shard: the path of a For
// that finds the team busy or is wider than it.
func spawn(workers, n int, fn func(worker, lo, hi int)) {
	var (
		wg   sync.WaitGroup
		once sync.Once
		pv   any
	)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					wp := wrap(r)
					once.Do(func() { pv = wp })
				}
			}()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	if pv != nil {
		panic(pv)
	}
}

// wrap turns a recovered value into a WorkerPanic. It must run in the
// deferred recover of the goroutine that panicked, or debug.Stack loses
// the shard's frames. A value that already is one came from a nested
// For and keeps its innermost capture.
func wrap(r any) WorkerPanic {
	if wp, ok := r.(WorkerPanic); ok {
		return wp
	}
	return WorkerPanic{Value: r, Stack: debug.Stack()}
}

// spinTime bounds how long an idle helper (and a caller waiting for its
// helpers) polls before parking. It covers the serial glue between the
// For calls of one placement iteration: on the flat 5K flow most gaps
// are under 30 µs, and the longest regular one, the rasterizer's
// row bucketing plus the iteration's serial tail, runs 90-270 µs. At
// 50 µs a fifth of all calls found their helper parked. A helper parks
// only when the program leaves the parallel kernels for longer.
const spinTime = 300 * time.Microsecond

// yieldEvery is how many polls a spinning goroutine makes between two
// runtime.Gosched calls, a few microseconds. Yielding on every poll
// tripled the hand-off latency: each Gosched goes through the
// scheduler's global queue and lock.
const yieldEvery = 1024

// maxTeam is the largest worker count the team serves: the shard count
// must fit the low 16 bits of team.seq. Wider calls spawn.
const maxTeam = 1<<16 - 1

// crew is the worker team behind For. There is one per process: the
// kernels that call For all run under the one placement loop, and a
// concurrent caller takes the spawn path.
var crew = newTeam()

// cacheLine pads the team's fields into groups that different
// goroutines write, so a spinning helper does not pull the line the
// owner is writing, and the other way round.
type cacheLine [64]byte

// team is a lazily grown set of helper goroutines, owned by one For at a
// time (busy). The owner runs shard 0; shards 1.. go to whoever claims
// them first, a helper or the owner once its own shard is done. A shard
// index is claimed once, so fn sees each worker id on one goroutine at a
// time, and a helper that the scheduler or the host has not run yet
// never holds up the call: the owner runs its shard instead.
//
// A round is published through seq, which packs the round number above
// the shard count (round<<16 | shards); claim packs the same round above
// the next unclaimed shard, so a claim made with a stale round fails its
// CAS. The 48-bit round wraps after years of back-to-back calls. The job
// fields are written before the round is published and read by a
// claimant after its claim; a shard's writes precede its decrement of
// pending, which the owner waits on before it reuses the record. The
// atomics order every access.
type team struct {
	// Written by the owner, polled by the helpers.
	seq, claim atomic.Uint64
	fn         func(worker, lo, hi int)
	n, chunk   int
	// spinners is the number of helpers allowed to spin: GOMAXPROCS-1.
	// The others park as soon as they go idle, so a worker count above
	// the core count cannot thrash.
	spinners atomic.Int32
	_        cacheLine

	// Written by the claimants, polled by the owner.
	pending  atomic.Int32
	panicked atomic.Pointer[WorkerPanic]
	// done wakes a parked owner when the last claimed shard finishes.
	done gate
	_    cacheLine

	busy    atomic.Bool
	round   uint64
	helpers []*helper
}

// helper is one team goroutine, with its own parking gate.
type helper struct {
	wake gate
	// exited is set if the goroutine ended inside a shard
	// (runtime.Goexit); the next job starts a replacement.
	exited atomic.Bool
}

func newTeam() *team {
	t := &team{}
	t.done.ch = make(chan struct{}, 1)
	return t
}

// run executes one job on the team; the caller holds busy.
func (t *team) run(workers, n int, fn func(worker, lo, hi int)) {
	chunk := (n + workers - 1) / workers
	shards := (n + chunk - 1) / chunk
	procs := runtime.GOMAXPROCS(0)
	t.grow(shards - 1)
	t.fn, t.n, t.chunk = fn, n, chunk
	t.spinners.Store(int32(procs - 1))
	t.pending.Store(int32(shards - 1))
	t.round++
	t.claim.Store(t.round<<16 | 1)
	seq := t.round<<16 | uint64(shards)
	t.seq.Store(seq)
	for _, h := range t.helpers[:shards-1] {
		h.wake.open()
	}
	// Deferred, so that a runtime.Goexit in a shard (t.FailNow in a test)
	// still joins the helpers and frees the team.
	defer t.join(shards <= procs)
	t.shard(0, false)
	t.work(seq)
}

// join waits for the claimed shards, frees the team and re-panics the
// first shard panic.
func (t *team) join(spin bool) {
	t.wait(spin)
	t.fn = nil
	pv := t.panicked.Swap(nil)
	t.busy.Store(false)
	if pv != nil {
		panic(*pv)
	}
}

// grow makes sure helpers 1..k exist and are alive.
func (t *team) grow(k int) {
	for i, h := range t.helpers {
		if h.exited.Load() {
			t.helpers[i] = t.start(i + 1)
		}
	}
	for len(t.helpers) < k {
		t.helpers = append(t.helpers, t.start(len(t.helpers)+1))
	}
}

func (t *team) start(id int) *helper {
	h := &helper{}
	h.wake.ch = make(chan struct{}, 1)
	go t.serve(h, id, t.seq.Load())
	return h
}

// work claims and runs shards of the round seq announced until none is
// left unclaimed.
func (t *team) work(seq uint64) {
	round, shards := seq>>16, seq&(1<<16-1)
	for {
		c := t.claim.Load()
		if c>>16 != round || c&(1<<16-1) >= shards {
			return
		}
		if t.claim.CompareAndSwap(c, c+1) {
			t.shard(int(c&(1<<16-1)), true)
		}
	}
}

// shard runs shard w of the current job, recording a panic instead of
// letting it unwind past the team. A claimed shard then counts itself
// done, also when it panicked or called runtime.Goexit.
func (t *team) shard(w int, claimed bool) {
	defer func() {
		if r := recover(); r != nil {
			wp := wrap(r)
			t.panicked.CompareAndSwap(nil, &wp)
		}
		if claimed && t.pending.Add(-1) == 0 {
			t.done.open()
		}
	}()
	lo := w * t.chunk
	t.fn(w, lo, min(lo+t.chunk, t.n))
}

// serve is helper id's loop: wait for a round, then claim and run what
// is left of it. seen is the round before its first.
func (t *team) serve(h *helper, id int, seen uint64) {
	// Only a runtime.Goexit inside fn ends the loop; the shard has
	// counted itself done, and the slot goes to a replacement.
	defer h.exited.Store(true)
	spin := false
	for {
		seen = t.next(h, seen, spin)
		t.work(seen)
		spin = id <= int(t.spinners.Load())
	}
}

// next returns the first published round after seen, spinning first
// when spin is set and parking on the helper's gate after that.
func (t *team) next(h *helper, seen uint64, spin bool) uint64 {
	s := seen
	await(&h.wake, spin, func() bool { s = t.seq.Load(); return s != seen })
	return s
}

// wait returns once every claimed shard has finished, spinning first
// when spin is set.
func (t *team) wait(spin bool) {
	await(&t.done, spin, func() bool { return t.pending.Load() == 0 })
}

// await returns once ready reports true. With spin set it polls for up
// to spinTime first, yielding every yieldEvery polls; then it parks on
// g, whose opener must make ready true before opening it.
func await(g *gate, spin bool, ready func() bool) {
	if spin {
		start := time.Now()
		for i := 1; !ready(); i++ {
			if i%yieldEvery == 0 {
				runtime.Gosched()
				if time.Since(start) > spinTime {
					break
				}
			}
		}
	}
	for !ready() {
		g.arm()
		if ready() {
			g.disarm()
			return
		}
		g.block()
	}
}

// gate parks one goroutine until another opens it, without losing a
// wakeup that races the park. The sleeper arms the gate, re-checks its
// condition, and then either disarms or blocks; an opener that finds the
// gate armed claims it and sends the one token the sleeper receives.
// Each claim is matched by exactly one receive, so no token outlives the
// sleep it was meant for; a late open from an earlier round only makes
// the sleeper re-check its condition.
type gate struct {
	state atomic.Int32
	ch    chan struct{}
}

const (
	gateIdle int32 = iota
	gateArmed
	gateOpened
)

func (g *gate) arm() { g.state.Store(gateArmed) }

// disarm withdraws an armed gate whose condition turned out to hold. If
// an opener claimed it first, its token is consumed here.
func (g *gate) disarm() {
	if !g.state.CompareAndSwap(gateArmed, gateIdle) {
		g.block()
	}
}

// block sleeps until an opener's token arrives.
func (g *gate) block() {
	<-g.ch
	g.state.Store(gateIdle)
}

// open wakes the sleeper if the gate is armed.
func (g *gate) open() {
	if g.state.CompareAndSwap(gateArmed, gateOpened) {
		g.ch <- struct{}{}
	}
}
