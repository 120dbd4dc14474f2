package experiments

import (
	"strings"
	"testing"
	"time"
)

// KernelMicrobench must measure every spectral kernel with at least one
// op and a positive rate, serial and (when workers allow) parallel.
func TestKernelMicrobench(t *testing.T) {
	micro := KernelMicrobench(1, time.Millisecond)
	if len(micro) == 0 {
		t.Fatal("no microbenchmarks recorded")
	}
	names := map[string]bool{}
	for _, mb := range micro {
		if mb.Ops < 1 || mb.NsPerOp <= 0 {
			t.Errorf("%s: ops=%d ns/op=%v", mb.Name, mb.Ops, mb.NsPerOp)
		}
		names[mb.Name] = true
	}
	for _, want := range []string{"fft/DCT2_512", "fft/DCT2Pair_512", "fft/IDCTAndIDST_512",
		"poisson/Solve_128_spectral_w1", "poisson/Solve_256_spectral_w1",
		"poisson/Solve_256_spectral32_w1",
		"legalize/Cells_5000_w1", "detail/Pass_5000_w1"} {
		if !names[want] {
			t.Errorf("missing kernel %q in %v", want, micro)
		}
	}
	// The non-reference backends carry the error-vs-float64 column.
	for _, mb := range micro {
		if strings.Contains(mb.Name, "spectral32") && (mb.MaxRelErr <= 0 || mb.MaxRelErr > 1e-4) {
			t.Errorf("%s: max_rel_err = %v, want (0, 1e-4]", mb.Name, mb.MaxRelErr)
		}
	}
	// workers=1: no parallel variants should appear.
	for name := range names {
		if strings.Contains(name, "_w") && !strings.HasSuffix(name, "_w1") {
			t.Errorf("unexpected parallel kernel %q at workers=1", name)
		}
	}
}

// The suite harness stamps the resolved worker count and attaches the
// microbenchmark sweep to the report header.
func TestBenchSuiteRecordsEnvironment(t *testing.T) {
	if testing.Short() {
		t.Skip("full placements")
	}
	rep := BenchSuite(BenchOptions{Scale: 0.05, Circuits: 1, Workers: 2, SkipSweep: true})
	if rep.Workers != 2 {
		t.Errorf("workers = %d, want 2", rep.Workers)
	}
	if rep.GOMAXPROCS <= 0 {
		t.Errorf("gomaxprocs = %d", rep.GOMAXPROCS)
	}
	if len(rep.Micro) == 0 {
		t.Error("no microbenchmarks attached to report")
	}
	if len(rep.Records) != 1 {
		t.Errorf("records = %d, want 1", len(rep.Records))
	}
}

// The scale sweep emits a flat and a multilevel row per size (flat only
// up to SweepFlatMax) with per-level iteration counts on the ML rows.
func TestScaleSweepRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full placements")
	}
	recs := ScaleSweep(BenchOptions{
		SweepSizes: []int{2500}, SweepFlatMax: 2500, SweepLevels: 3, Workers: 2,
	})
	if len(recs) != 2 {
		t.Fatalf("records = %d, want flat+ml", len(recs))
	}
	if recs[0].Benchmark != "SWEEP2500/flat" || recs[1].Benchmark != "SWEEP2500/ml" {
		t.Fatalf("record names = %q, %q", recs[0].Benchmark, recs[1].Benchmark)
	}
	for _, b := range recs {
		if !b.Legal || b.Failed {
			t.Errorf("%s: legal=%v failed=%v", b.Benchmark, b.Legal, b.Failed)
		}
	}
	if recs[1].Iterations["mGP/L1"] == 0 {
		t.Errorf("ml row missing per-level iterations: %v", recs[1].Iterations)
	}
	found := false
	for _, st := range recs[1].Stages {
		if st.Name == "mGP/L1" && st.Seconds > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("ml row missing per-level stage time: %+v", recs[1].Stages)
	}
}
