package parallel

import (
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCount(t *testing.T) {
	if got := Count(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Count(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Count(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Count(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Count(7); got != 7 {
		t.Fatalf("Count(7) = %d", got)
	}
}

// TestForCoversRange checks every index is visited exactly once and
// worker ids stay dense, for worker counts below, at and above n.
func TestForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		for _, n := range []int{0, 1, 5, 16, 97} {
			visits := make([]int32, n)
			maxWorkers := workers
			if n < maxWorkers {
				maxWorkers = n
			}
			For(workers, n, func(w, lo, hi int) {
				if w < 0 || w >= maxWorkers {
					t.Errorf("workers=%d n=%d: worker id %d out of range", workers, n, w)
				}
				if lo >= hi {
					t.Errorf("workers=%d n=%d: empty shard [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestForSerialInline checks the workers<=1 path runs on the calling
// goroutine (shards execute in order with no interleaving).
func TestForSerialInline(t *testing.T) {
	var order []int
	For(1, 5, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != 5 {
			t.Fatalf("serial shard (%d,%d,%d), want (0,0,5)", w, lo, hi)
		}
		for i := lo; i < hi; i++ {
			order = append(order, i)
		}
	})
	for i, v := range order {
		if i != v {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestForPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				// The inline workers<=1 path panics the raw value; the
				// pooled path wraps it in a WorkerPanic carrying the
				// worker's stack.
				switch v := r.(type) {
				case string:
					if workers != 1 || v != "boom" {
						t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
					}
				case WorkerPanic:
					if workers == 1 {
						t.Fatalf("workers=1 inline path should not wrap, got %T", r)
					}
					if s, ok := v.Value.(string); !ok || s != "boom" {
						t.Fatalf("workers=%d: wrapped value %v, want boom", workers, v.Value)
					}
					if len(v.Stack) == 0 {
						t.Fatalf("workers=%d: WorkerPanic carries no stack", workers)
					}
				default:
					t.Fatalf("workers=%d: recovered %T %v", workers, r, r)
				}
			}()
			For(workers, 8, func(w, lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForPanicCarriesWorkerStack pins the debugging contract: the
// propagated panic's stack names the function that actually panicked on
// the worker goroutine, not just the wg.Wait() frame of the caller.
func TestForPanicCarriesWorkerStack(t *testing.T) {
	defer func() {
		r := recover()
		wp, ok := r.(WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want WorkerPanic", r)
		}
		if !strings.Contains(string(wp.Stack), "explodingShard") {
			t.Errorf("worker stack does not name the panicking function:\n%s", wp.Stack)
		}
		if !strings.Contains(wp.Error(), "kaboom") || !strings.Contains(wp.Error(), "worker stack:") {
			t.Errorf("Error() = %q, want panic value and stack", wp.Error())
		}
	}()
	For(4, 8, func(w, lo, hi int) {
		if lo == 0 {
			explodingShard()
		}
	})
}

func explodingShard() { panic("kaboom") }

// TestWorkerPanicUnwrap: error panic values stay inspectable with
// errors.Is through the wrapper.
func TestWorkerPanicUnwrap(t *testing.T) {
	sentinel := errors.New("shard failed")
	defer func() {
		r := recover()
		wp, ok := r.(WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want WorkerPanic", r)
		}
		if !errors.Is(wp, sentinel) {
			t.Error("errors.Is does not see the original error through WorkerPanic")
		}
	}()
	For(2, 4, func(w, lo, hi int) { panic(sentinel) })
}

// TestForConcurrentCallers runs For from two goroutines at once: one of
// them finds the team busy and takes the spawn path, and both must still
// cover their ranges exactly once with dense worker ids.
func TestForConcurrentCallers(t *testing.T) {
	const rounds, n = 200, 1000
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visits := make([]int32, n)
			for r := 0; r < rounds; r++ {
				For(3, n, func(w, lo, hi int) {
					if w < 0 || w >= 3 {
						t.Errorf("worker id %d out of range", w)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
			}
			for i, v := range visits {
				if v != rounds {
					t.Errorf("index %d visited %d times over %d rounds", i, v, rounds)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestForNested runs a For inside every shard of another: the inner
// calls find the team busy and spawn, and every (outer, inner) index
// pair is visited exactly once.
func TestForNested(t *testing.T) {
	const outer, inner = 4, 50
	var visits [outer * inner]int32
	For(outer, outer, func(_, lo, hi int) {
		for o := lo; o < hi; o++ {
			For(3, inner, func(_, ilo, ihi int) {
				for i := ilo; i < ihi; i++ {
					atomic.AddInt32(&visits[o*inner+i], 1)
				}
			})
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("pair %d visited %d times", i, v)
		}
	}
}

// onHelper runs fn as shard w of a workers-wide For while shard 0, the
// caller's own, waits for it to start: the caller claims no other shard
// before its own is done, so shard w runs on a team helper.
func onHelper(workers, w int, fn func()) {
	started := make(chan struct{})
	For(workers, workers, func(s, _, _ int) {
		switch s {
		case 0:
			<-started
		case w:
			close(started)
			fn()
		}
	})
}

// TestForHelperPanicThenReuse panics in a shard a helper runs: the
// WorkerPanic must carry that helper's stack, and the team must serve
// the next For normally.
func TestForHelperPanicThenReuse(t *testing.T) {
	func() {
		defer func() {
			wp, ok := recover().(WorkerPanic)
			if !ok {
				t.Fatal("helper panic did not propagate as a WorkerPanic")
			}
			if !strings.Contains(string(wp.Stack), "helperShardPanics") {
				t.Errorf("stack does not name the helper's panicking function:\n%s", wp.Stack)
			}
			if strings.Contains(string(wp.Stack), "TestForHelperPanicThenReuse") {
				t.Errorf("the panic was captured on the caller's goroutine:\n%s", wp.Stack)
			}
		}()
		onHelper(4, 3, helperShardPanics)
	}()
	var sum atomic.Int64
	For(4, 100, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if sum.Load() != 99*100/2 {
		t.Fatalf("For after a panic summed %d, want %d", sum.Load(), 99*100/2)
	}
}

func helperShardPanics() { panic("helper down") }

// TestForHelperGoexit ends a helper's goroutine inside its shard with
// runtime.Goexit: For must still return, and the team must replace the
// helper for the next call.
func TestForHelperGoexit(t *testing.T) {
	onHelper(2, 1, runtime.Goexit)
	var visits [10]int32
	For(2, 10, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times after a helper Goexit", i, v)
		}
	}
}

// TestForCallerRunsUnclaimedShards holds the caller to claiming the
// shards no helper has started: on one processor the woken helpers
// cannot run before the caller yields, so the caller runs every shard
// itself instead of waiting for them.
func TestForCallerRunsUnclaimedShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for r := 0; r < 100; r++ {
		var onCaller [4]bool
		For(4, 4, func(w, _, _ int) {
			onCaller[w] = strings.Contains(string(debug.Stack()), "TestForCallerRunsUnclaimedShards")
		})
		for w, ok := range onCaller {
			if !ok {
				t.Fatalf("round %d: shard %d ran on a helper, not the caller", r, w)
			}
		}
	}
}

// TestForOversubscribed runs 7 workers on 2 cores: every index is
// covered exactly once, and the helpers beyond the cores park instead of
// spinning, so a thousand calls finish well inside the time bound.
func TestForOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, rounds = 7 * 64, 1000
	visits := make([]int32, n)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		For(7, n, func(w, lo, hi int) {
			if w < 0 || w >= 7 {
				t.Errorf("worker id %d out of range", w)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("%d calls at 7 workers on 2 cores took %v", rounds, el)
	}
	for i, v := range visits {
		if v != rounds {
			t.Fatalf("index %d visited %d times over %d rounds", i, v, rounds)
		}
	}
}

// TestForAllocFree pins the team path's allocation contract: once the
// helpers exist, a For at two or more workers allocates nothing.
func TestForAllocFree(t *testing.T) {
	buf := make([]float64, 4096)
	fn := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[i]++
		}
	}
	for _, workers := range []int{2, 4} {
		For(workers, len(buf), fn)
		if a := testing.AllocsPerRun(100, func() { For(workers, len(buf), fn) }); a != 0 {
			t.Errorf("workers=%d: For allocates %v times per call, want 0", workers, a)
		}
	}
}

// BenchmarkFor times one two-worker For call: empty shards (the pure
// wake-and-join cost), and small shards separated by a serial gap, the
// shape of a gradient evaluation's kernels and glue. Run it at -cpu 1,2:
// on one core the helper parks between calls, on two it spins.
func BenchmarkFor(b *testing.B) {
	const workers = 2
	b.Run("empty", func(b *testing.B) {
		fn := func(_, _, _ int) {}
		for i := 0; i < b.N; i++ {
			For(workers, workers, fn)
		}
	})
	b.Run("small-gap", func(b *testing.B) {
		buf := make([]float64, 8192)
		fn := func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i] = buf[i]*0.5 + 1
			}
		}
		for i := 0; i < b.N; i++ {
			For(workers, len(buf), fn)
			s := 0.0 // the serial glue between two kernels
			for _, v := range buf[:1024] {
				s += v
			}
			buf[0] = s
		}
	})
}
