package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// GoldenTrace is the determinism harness of the flow: a rolling 64-bit
// word-folded hash per stage over the exact bit patterns of every
// iteration's state (solution positions, cost, penalty lambda). Two
// runs of the same flow are bitwise-identical if and only if every
// stage digest matches, so a digest mismatch pinpoints the first stage
// where nondeterminism crept in — far sharper than comparing a final
// HPWL that two different trajectories can coincidentally share, and
// far less flaky than chasing a 0.1% wirelength flutter.
//
// Digest definition (tests, CI and checkpoint.FormatVersion depend on
// it): each stage starts from foldSeed. One Absorb(stage, iter, pos,
// cost, lambda) call feeds, in order, the iteration index as a uint64,
// the IEEE-754 bit pattern of every position value (in slice order),
// then the bit patterns of cost and lambda — every uint64 v folded whole
// by h = (h ^ h>>32 ^ v) * foldMul. The step is a bijection of h for a
// fixed v and of v for a fixed h, so one differing word always changes h.
//
// A nil *GoldenTrace is valid and turns every method into a no-op, the
// same convention as Recorder: instrumented code never branches on
// "digests on?".
//
// Concurrency: all methods are safe for concurrent use. Within one
// stage, callers absorb iterations from a single goroutine (the
// optimizer loop is serial), which is what makes the rolling hash
// well-defined.
type GoldenTrace struct {
	mu     sync.Mutex
	stages map[string]*stageHash
	order  []string
}

type stageHash struct {
	hash  uint64
	iters int
}

const (
	foldSeed = 14695981039346656037 // the FNV-1a offset basis
	foldMul  = 0x9e3779b97f4a7c15   // 2^64 / golden ratio, odd
)

// NewGoldenTrace creates an empty digest harness.
func NewGoldenTrace() *GoldenTrace {
	return &GoldenTrace{stages: map[string]*stageHash{}}
}

// fold absorbs one uint64 into the hash. The xor-shift carries a high
// bit down so the multiply spreads it: under the multiply alone two
// flipped sign bits would cancel. h^v and h>>32 issue together.
func fold(h, v uint64) uint64 {
	return (h ^ v ^ h>>32) * foldMul
}

// Absorb folds one iteration of a stage into its rolling digest: the
// iteration index, the solution vector pos (exact float64 bit
// patterns, slice order), the iteration cost and the penalty lambda.
// Stages are created on first use and remembered in first-seen order.
func (g *GoldenTrace) Absorb(stage string, iter int, pos []float64, cost, lambda float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	sh := g.stages[stage]
	if sh == nil {
		sh = &stageHash{hash: foldSeed}
		g.stages[stage] = sh
		g.order = append(g.order, stage)
	}
	h := fold(sh.hash, uint64(iter))
	for _, p := range pos {
		h = fold(h, math.Float64bits(p))
	}
	h = fold(h, math.Float64bits(cost))
	h = fold(h, math.Float64bits(lambda))
	sh.hash = h
	sh.iters++
	g.mu.Unlock()
}

// StageDigest is one stage's final rolling hash, exposed in
// FlowResult.Digests.
type StageDigest struct {
	// Stage is the flow stage label ("mIP", "mGP", ...).
	Stage string `json:"stage"`
	// Iterations is how many Absorb calls the digest covers.
	Iterations int `json:"iters"`
	// Digest is the rolling word-folded hash after the last absorb.
	Digest uint64 `json:"digest"`
}

// Hex renders the digest as the canonical fixed-width hex string.
func (s StageDigest) Hex() string { return fmt.Sprintf("%016x", s.Digest) }

// Digests returns every stage digest in first-seen (execution) order.
func (g *GoldenTrace) Digests() []StageDigest {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]StageDigest, 0, len(g.order))
	for _, name := range g.order {
		sh := g.stages[name]
		out = append(out, StageDigest{Stage: name, Iterations: sh.iters, Digest: sh.hash})
	}
	return out
}

// GoldenState is the serializable snapshot of a GoldenTrace, captured
// into checkpoints so a resumed run continues the same rolling hashes
// and its final digests match the uninterrupted run's exactly.
type GoldenState struct {
	Stages []StageDigest
}

// State snapshots the rolling hashes in execution order.
func (g *GoldenTrace) State() GoldenState {
	if g == nil {
		return GoldenState{}
	}
	return GoldenState{Stages: g.Digests()}
}

// SetState replaces the rolling hashes with a snapshot taken by State.
func (g *GoldenTrace) SetState(s GoldenState) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.stages = make(map[string]*stageHash, len(s.Stages))
	g.order = g.order[:0]
	for _, sd := range s.Stages {
		g.stages[sd.Stage] = &stageHash{hash: sd.Digest, iters: sd.Iterations}
		g.order = append(g.order, sd.Stage)
	}
	g.mu.Unlock()
}

// DigestsEqual reports whether two digest lists are identical after
// name-keyed alignment (order-insensitive), returning a description of
// the first difference for test failure messages.
func DigestsEqual(a, b []StageDigest) (bool, string) {
	am := map[string]StageDigest{}
	for _, d := range a {
		am[d.Stage] = d
	}
	bm := map[string]StageDigest{}
	for _, d := range b {
		bm[d.Stage] = d
	}
	var names []string
	for n := range am {
		names = append(names, n)
	}
	for n := range bm {
		if _, ok := am[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		da, oka := am[n]
		db, okb := bm[n]
		switch {
		case !oka:
			return false, fmt.Sprintf("stage %s only in second trace", n)
		case !okb:
			return false, fmt.Sprintf("stage %s only in first trace", n)
		case da.Digest != db.Digest || da.Iterations != db.Iterations:
			return false, fmt.Sprintf("stage %s: %s/%d iters vs %s/%d iters",
				n, da.Hex(), da.Iterations, db.Hex(), db.Iterations)
		}
	}
	return true, ""
}
