package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eplace/internal/core"
	"eplace/internal/netlist"
	"eplace/internal/synth"
)

// smokeScale shrinks the workloads to 400 / 1600 / 400 / 400 cells.
const smokeScale = "0.08"

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram pins the program's workload and
// metric tables to the file the driver reads.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadNames())
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has\n%v\nthe program\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has\n%v\nthe program\n%v", bj.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
}

// TestSmokeAllWorkloads runs every workload in-process, scaled down,
// with tracing off and on, and checks that each run is correct and
// reports every metric of BENCHMARK.json exactly once.
func TestSmokeAllWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{bj.EndToEnd, bj.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-scale", smokeScale, "-seconds", "0", "-trace", []string{"0", "1"}[trace]}
			if code := mainCode(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var result struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&result); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result object: %v", w.name, trace, err)
			}
			if !result.Correct || result.Failed != 0 || result.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, result.Correct, result.Attempted, result.Failed)
			}
			if len(result.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics in the result, BENCHMARK.json lists %d", w.name, trace, len(result.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := result.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s missing or with the wrong unit: %+v", w.name, trace, d.Name, m)
				}
				rows := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) > 0 && f[0] == d.Name {
						rows++
					}
				}
				if rows != 1 {
					t.Errorf("%s trace=%d: metric %s printed %d times", w.name, trace, d.Name, rows)
				}
			}
			if !strings.Contains(stdout.String(), "scale="+smokeScale) {
				t.Errorf("%s trace=%d: the scale is not recorded in the output", w.name, trace)
			}
		}
	}
}

// TestStageSharesAddUp checks the accounting of a traced repetition:
// the stage shares and the unclaimed rest are the whole placement.
func TestStageSharesAddUp(t *testing.T) {
	for _, w := range workloads {
		res, err := run(runConfig{wl: w.scaled(0.08), seed: 2, trace: true, workersN: 2, setupReps: 1, probeCalls: 1})
		if err != nil || res.failed != 0 {
			t.Fatalf("%s: err=%v failures=%v", w.name, err, res.failures)
		}
		sum := 0.0
		for _, k := range []string{"mip", "mgp", "mgp_coarse", "mlg", "cgp", "egp", "cdp", "other"} {
			sum += res.metrics["core."+k+"_frac"].Median
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: stage shares sum to %v", w.name, sum)
		}
		ids := map[int]bool{}
		for _, s := range res.tracer.spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: span %d (%s) names parent %d before it exists", w.name, s.ID, s.Name, s.Parent)
			}
			if !s.Folded && s.End < s.Start {
				t.Errorf("%s: span %d (%s) was never ended", w.name, s.ID, s.Name)
			}
			ids[s.ID] = true
		}
	}
}

func TestScaledRunRefusesCommittedResults(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workloads[0].name, "-scale", smokeScale, "-out", filepath.Join("benchmark", "results", "x.json")}
	if code := mainCode(args, &stdout, &stderr); code == 0 || !strings.Contains(stderr.String(), "scaled run") {
		t.Errorf("exit %d, stderr %q", code, stderr.String())
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	w := workloads[0].scaled(0.08)
	a, _, err := w.prepare(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := w.prepare(3, 0, 1)
	c, _, _ := w.prepare(4, 0, 1)
	if !reflect.DeepEqual(a.design.Positions(a.design.Movable()), b.design.Positions(b.design.Movable())) {
		t.Error("the same seed generated two different designs")
	}
	if reflect.DeepEqual(a.design.Positions(a.design.Movable()), c.design.Positions(c.design.Movable())) {
		t.Error("two seeds generated the same design")
	}
}

// TestVerifyLayoutCatches breaks a legal layout in each way the
// verifier is there to catch.
func TestVerifyLayoutCatches(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "verify", NumCells: 300, NumMovableMacros: 4, Seed: 5})
	macros := d.MovableOf(netlist.Macro)
	res, err := core.Place(d, core.FlowOptions{GP: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyLayout(d, macros, res.HPWL); err != nil {
		t.Fatalf("a finished layout does not verify: %v", err)
	}
	std := d.MovableOf(netlist.StdCell)
	a, b := &d.Cells[std[0]], &d.Cells[std[1]]
	for name, breakIt := range map[string]func() float64{
		"overlap":    func() float64 { a.X, a.Y = b.X, b.Y; return d.HPWL() },
		"off-region": func() float64 { a.X = d.Region.Hx + 10; return d.HPWL() },
		"non-finite": func() float64 { a.Y = math.NaN(); return res.HPWL },
		"hpwl":       func() float64 { return res.HPWL * (1 + 1e-15) },
		"macro": func() float64 {
			d.Cells[macros[0]].X = d.Cells[macros[1]].X
			d.Cells[macros[0]].Y = d.Cells[macros[1]].Y
			return d.HPWL()
		},
	} {
		ax, ay, mx, my := a.X, a.Y, d.Cells[macros[0]].X, d.Cells[macros[0]].Y
		if err := verifyLayout(d, macros, breakIt()); err == nil {
			t.Errorf("%s: not caught", name)
		}
		a.X, a.Y, d.Cells[macros[0]].X, d.Cells[macros[0]].Y = ax, ay, mx, my
	}
	frozen := std[:3]
	before := d.Positions(frozen)
	if err := verifyFrozen(d, frozen, before); err != nil {
		t.Errorf("unmoved cells reported as moved: %v", err)
	}
	d.Cells[frozen[2]].Y += 1e-9
	if err := verifyFrozen(d, frozen, before); err == nil {
		t.Error("a moved frozen cell was not caught")
	}
	l := digestLedger{}
	if l.check("0/", "aa") != nil || l.check("0/", "aa") != nil || l.check("1/", "bb") != nil {
		t.Error("equal digests rejected")
	}
	if l.check("0/", "ab") == nil || l.check("2/", "") == nil {
		t.Error("a differing or missing digest was accepted")
	}
}

func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		in                  []float64
		median, min, max    float64
		spread, wantMeanVal float64
	}{
		{[]float64{3, 1, 2}, 2, 1, 3, 1, 2},
		{[]float64{4, 1, 3, 2}, 2.5, 1, 4, 1, 2.5}, // quartiles 1.25 and 3.75, as Python's
		{[]float64{9, 1, 2, 3, 4, 5, 6, 7, 8, 30}, 5.5, 1, 30, 5.5 / 5.5, 7.5},
		{[]float64{5}, 5, 5, 5, 0, 5},
		{nil, 0, 0, 0, 0, 0},
	} {
		s := summarize(c.in)
		if s.Median != c.median || s.Min != c.min || s.Max != c.max || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v", c.in, s)
		}
		if got := s.spread(); got != c.spread {
			t.Errorf("spread of %v = %v, want %v", c.in, got, c.spread)
		}
		if got := mean(c.in); got != c.wantMeanVal {
			t.Errorf("mean(%v) = %v", c.in, got)
		}
	}
	in := []float64{3, 1, 2}
	summarize(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Error("summarize reordered its input")
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "place_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(v float64) summary {
		return summary{Median: v, Min: v * 0.7, Q1: v * 0.99, Q3: v * 1.01, Max: v * 1.3, N: 10}
	}
	wide := func(v float64) summary {
		return summary{Median: v, Min: v * 0.9, Q1: v * 0.94, Q3: v * 1.06, Max: v * 1.1, N: 10}
	}
	few := func(v float64) summary { return summary{Median: v, Min: v * 0.94, Max: v * 1.06, N: 3} }
	for _, c := range []struct {
		def      metricDef
		old, cur summary
		want     string
	}{
		{lower, tight(1), tight(1.05), verdictOK},
		{lower, tight(1), tight(0.5), verdictOK},
		{lower, tight(1), tight(1.11), verdictRegressed},
		{lower, wide(1), tight(1.5), verdictUnresolved},
		{lower, tight(1), wide(1), verdictUnresolved},
		{lower, few(1), tight(1), verdictUnresolved},
		{higher, tight(1), tight(0.85), verdictRegressed},
		{higher, tight(1), tight(1.5), verdictOK},
		{metricDef{Name: "grid.m", Better: "lower"}, tight(1), tight(9), verdictNone},
	} {
		if got := verdict(c.def, c.old, c.cur); got != c.want {
			t.Errorf("verdict(%s %s, %v -> %v) = %s, want %s", c.def.Name, c.def.Better, c.old.Median, c.cur.Median, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(place float64, failed int) resultSet {
		var rf resultFile
		for i := 0; i < 3; i++ {
			rf.Runs = append(rf.Runs, runRecord{
				Workload: workloads[0].name, Attempted: 10, Failed: failed,
				Metrics: map[string]metricRecord{"place_s": {Value: place * (1 + 0.001*float64(i)), Unit: "s"}},
			})
		}
		return index(&rf)
	}
	var out bytes.Buffer
	if bad := compareSets(mk(1, 0), mk(1.02, 0), &out); bad != 0 || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("a 2%% slowdown blocked (%d):\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compareSets(mk(1, 0), mk(1.5, 0), &out); bad != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 50%% slowdown gave %d blocking rows:\n%s", bad, out.String())
	}
	if bad := compareSets(mk(1, 0), mk(1, 1), &out); bad != 1 {
		t.Errorf("more failed operations gave %d blocking rows", bad)
	}
	one := index(&resultFile{Runs: []runRecord{{Workload: workloads[0].name, Attempted: 1,
		Metrics: map[string]metricRecord{"place_s": {Value: 1, Min: 0.8, Max: 1.3, N: 4, Unit: "s"}}}}})
	out.Reset()
	if compareSets(one, one, &out); !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("a single noisy run compared as resolved:\n%s", out.String())
	}
}
