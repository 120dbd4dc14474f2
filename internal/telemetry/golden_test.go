package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

// TestGoldenKnownAnswer pins the digest definition: the documented word
// stream folded by a loop written out here, and the resulting constant
// (a change to seed, multiplier, shift or word order moves it).
func TestGoldenKnownAnswer(t *testing.T) {
	g := NewGoldenTrace()
	pos := []float64{1.5, -2.25, 3.75}
	g.Absorb("mGP", 0, pos, 10.5, 0.25)
	g.Absorb("mGP", 1, pos, 11.5, 0.5)

	h := uint64(14695981039346656037)
	for _, v := range []uint64{
		0, math.Float64bits(1.5), math.Float64bits(-2.25), math.Float64bits(3.75),
		math.Float64bits(10.5), math.Float64bits(0.25),
		1, math.Float64bits(1.5), math.Float64bits(-2.25), math.Float64bits(3.75),
		math.Float64bits(11.5), math.Float64bits(0.5),
	} {
		h ^= h >> 32
		h = (h ^ v) * 0x9e3779b97f4a7c15
	}

	ds := g.Digests()
	if len(ds) != 1 || ds[0].Stage != "mGP" || ds[0].Iterations != 2 {
		t.Fatalf("digests = %+v", ds)
	}
	const want = 0x1e93c71caa64f0ff
	if ds[0].Digest != h || h != want {
		t.Errorf("digest %016x, written-out fold %016x, pinned %016x", ds[0].Digest, h, uint64(want))
	}
}

// message64 is one Absorb call of 64 words: the iteration index, 61
// coordinates, cost and lambda.
func message64() (words [64]uint64) {
	rng := rand.New(rand.NewSource(21))
	words[0] = 17
	for i := 1; i < 64; i++ {
		words[i] = math.Float64bits(rng.NormFloat64() * 100)
	}
	return words
}

func digest64(words [64]uint64) uint64 {
	pos := make([]float64, 61)
	for i := range pos {
		pos[i] = math.Float64frombits(words[1+i])
	}
	g := NewGoldenTrace()
	g.Absorb("s", int(words[0]), pos, math.Float64frombits(words[62]), math.Float64frombits(words[63]))
	return g.Digests()[0].Digest
}

// TestGoldenSingleBitFlips: every step of the fold is a bijection of the
// word, so no single-bit change of any word (iteration index, any
// coordinate, cost, lambda) can leave the digest where it was.
func TestGoldenSingleBitFlips(t *testing.T) {
	base := message64()
	want := digest64(base)
	for w := range base {
		for b := 0; b < 64; b++ {
			m := base
			m[w] ^= 1 << b
			if digest64(m) == want {
				t.Errorf("flipping bit %d of word %d left the digest unchanged", b, w)
			}
		}
	}
}

// TestGoldenTwoSignFlips: two mirrored coordinates. Under a fold that
// only multiplies, a flipped top bit stays the top bit of every later
// hash, and a second flip cancels it.
func TestGoldenTwoSignFlips(t *testing.T) {
	base := message64()
	want := digest64(base)
	for i := 1; i <= 61; i++ {
		for j := i + 1; j <= 61; j++ {
			m := base
			m[i] ^= 1 << 63
			m[j] ^= 1 << 63
			if digest64(m) == want {
				t.Errorf("negating coordinates %d and %d left the digest unchanged", i-1, j-1)
			}
		}
	}
}

func TestGoldenDeterministicAndSensitive(t *testing.T) {
	run := func(perturb bool) []StageDigest {
		g := NewGoldenTrace()
		g.Absorb("mIP", 0, []float64{1, 2, 3}, 6, 0)
		third := 3.0
		if perturb {
			third = math.Nextafter(3, 4) // one ULP
		}
		g.Absorb("mGP", 0, []float64{1, 2, third}, 6, 1)
		g.Absorb("mGP", 1, []float64{4, 5, 6}, 15, 1.1)
		return g.Digests()
	}
	a, b := run(false), run(false)
	if ok, diff := DigestsEqual(a, b); !ok {
		t.Fatalf("identical input, digests differ: %s", diff)
	}
	c := run(true) // a one-ULP change must flip the mGP digest
	if ok, _ := DigestsEqual(a, c); ok {
		t.Fatal("perturbed trace produced identical digests")
	}
	if a[0].Digest != c[0].Digest {
		t.Error("perturbation in mGP changed the mIP digest")
	}
}

func TestGoldenStateRoundTrip(t *testing.T) {
	g := NewGoldenTrace()
	g.Absorb("mGP", 0, []float64{1, 2}, 3, 0.5)
	g.Absorb("mGP", 1, []float64{2, 3}, 5, 0.6)
	mid := g.State()

	// Continue the original.
	g.Absorb("mGP", 2, []float64{4, 5}, 9, 0.7)
	g.Absorb("cGP", 0, []float64{6}, 6, 0.1)

	// Resume a fresh trace from the snapshot and replay the tail.
	r := NewGoldenTrace()
	r.SetState(mid)
	r.Absorb("mGP", 2, []float64{4, 5}, 9, 0.7)
	r.Absorb("cGP", 0, []float64{6}, 6, 0.1)

	if ok, diff := DigestsEqual(g.Digests(), r.Digests()); !ok {
		t.Fatalf("resumed trace diverged: %s", diff)
	}
}

func TestGoldenNilSafe(t *testing.T) {
	var g *GoldenTrace
	g.Absorb("mGP", 0, []float64{1}, 1, 1) // must not panic
	if g.Digests() != nil {
		t.Error("nil trace returned digests")
	}
	g.SetState(GoldenState{})
	if s := g.State(); len(s.Stages) != 0 {
		t.Error("nil trace returned state")
	}
}

func TestDigestsEqualReportsDifferences(t *testing.T) {
	a := []StageDigest{{Stage: "mGP", Iterations: 3, Digest: 1}}
	b := []StageDigest{{Stage: "mGP", Iterations: 3, Digest: 2}}
	if ok, diff := DigestsEqual(a, b); ok || diff == "" {
		t.Error("digest mismatch not reported")
	}
	if ok, diff := DigestsEqual(a, nil); ok || diff == "" {
		t.Error("missing stage not reported")
	}
	// Alignment is by stage name, not position.
	c := []StageDigest{{Stage: "cGP", Digest: 9}, {Stage: "mGP", Iterations: 3, Digest: 1}}
	d := []StageDigest{{Stage: "mGP", Iterations: 3, Digest: 1}, {Stage: "cGP", Digest: 9}}
	if ok, diff := DigestsEqual(c, d); !ok {
		t.Errorf("order-insensitive compare failed: %s", diff)
	}
}

// BenchmarkGoldenAbsorb is one iteration's digest of a 5 000-cell stage:
// 10 000 coordinates.
func BenchmarkGoldenAbsorb(b *testing.B) {
	pos := make([]float64, 10000)
	for i := range pos {
		pos[i] = float64(i) * 0.37
	}
	g := NewGoldenTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Absorb("mGP", i, pos, 1.5, 0.25)
	}
}
