// Command benchmark measures the placer on one workload and prints the
// metrics BENCHMARK.json names: end to end with -trace 0, layer by layer
// with -trace 1. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// committedResults is where result sets kept in the repository live; a
// scaled-down run must never end up among them.
const committedResults = "benchmark/results"

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Int64("seed", 1, "seed of the generated designs and the ECO edit scripts")
	seconds := fl.Float64("seconds", 20, "run length: once every design was placed, a design gets another turn only if it should end inside it")
	trace := fl.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced repetitions and probes")
	out := fl.String("out", "", "append the run to this JSON result file (and write <out>.trace.jsonl with -trace 1)")
	scale := fl.Float64("scale", 1, "shrink the workload; for the smoke test only, recorded in the output")
	compare := fl.Bool("compare", false, "compare two result files: benchmark -compare old.json new.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	wl := findWorkload(*name)
	if wl == nil || fl.NArg() != 0 || *trace < 0 || *trace > 1 || *scale <= 0 || *scale > 1 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s), -trace 0 or 1, -scale in (0, 1]\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if *scale != 1 && strings.HasPrefix(filepath.ToSlash(filepath.Clean(*out)), committedResults) {
		fmt.Fprintf(stderr, "benchmark: a scaled run does not write under %s\n", committedResults)
		return 2
	}

	start := time.Now()
	cfg := runConfig{
		wl:        wl.scaled(*scale),
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		workersN:  workersN(),
		setupReps: 3,
	}
	if *scale != 1 {
		cfg.setupReps, cfg.probeCalls = 1, 1
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: workload %s seed %d: %v\n", wl.name, *seed, err)
		return 1
	}

	rec := runRecord{
		Env:       readEnvironment(),
		Workload:  wl.name,
		Seed:      *seed,
		Trace:     *trace,
		Seconds:   *seconds,
		Scale:     *scale,
		Designs:   res.designs,
		Turns:     res.turns,
		WallS:     time.Since(start).Seconds(),
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Failures:  res.failures,
		Metrics:   map[string]metricRecord{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		s := res.metrics[d.Name]
		rec.Metrics[d.Name] = metricRecord{Value: s.Median, Unit: d.Unit, Min: s.Min, Max: s.Max, N: s.N}
	}
	rec.print(stdout, defs)

	code := 0
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			code = 1
		}
		if cfg.trace {
			if err := res.tracer.write(*out + ".trace.jsonl"); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				code = 1
			}
		}
	}
	if err := rec.printResultLine(stdout); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metricRecord is one metric of one run: the run's value (a median,
// or a mean for the quality metrics) with the extremes and the number
// of the samples behind it.
type metricRecord struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// runRecord is one run as kept in a result file.
type runRecord struct {
	Env       environment             `json:"env"`
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Trace     int                     `json:"trace"`
	Seconds   float64                 `json:"seconds"`
	Scale     float64                 `json:"scale"`
	Designs   int                     `json:"designs"`
	Turns     int                     `json:"turns"`
	WallS     float64                 `json:"wall_s"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	Metrics   map[string]metricRecord `json:"metrics"`
}

// resultFile is a set of runs: what -out accumulates and -compare reads.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func (r *runRecord) print(w io.Writer, defs []metricDef) {
	e := r.Env
	fmt.Fprintf(w, "# workload=%s seed=%d trace=%d seconds=%g scale=%g designs=%d turns=%d wall_s=%.2f\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Scale, r.Designs, r.Turns, r.WallS)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d workers_n=%d go=%s GOGC=%s commit=%s cpu=%q\n",
		e.NProc, e.GoMaxProcs, e.WorkersN, e.GoVersion, e.GOGC, e.Commit, e.CPU)
	fmt.Fprintf(w, "%-28s %14s %-7s %14s %14s %3s\n", "metric", "value", "unit", "min", "max", "n")
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-28s %14.6g %-7s %14.6g %14.6g %3d\n", d.Name, m.Value, m.Unit, m.Min, m.Max, m.N)
	}
	fmt.Fprintf(w, "ops=%d failed_ops=%d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, f)
	}
}

// printResultLine writes the one line the driver reads.
func (r *runRecord) printResultLine(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &rf, nil
}

// appendRun adds rec to the result file at path, creating it if needed.
func appendRun(path string, rec runRecord) error {
	rf, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		rf = &resultFile{}
	} else if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
