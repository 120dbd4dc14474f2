package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictNone       = "-" // per-layer metrics have no bound
)

// verdict holds one metric's two sides against its bound. A side whose
// own spread is wider than the bound cannot show a difference that
// small, so the row is unresolved rather than ok or regressed.
func verdict(def metricDef, old, cur summary) string {
	if def.Bound == 0 {
		return verdictNone
	}
	if old.spread() > def.Bound || cur.spread() > def.Bound {
		return verdictUnresolved
	}
	if worsening(def, old.Median, cur.Median) > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// worsening is how much worse cur is than old, as a share of old.
func worsening(def metricDef, old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	d := (cur - old) / math.Abs(old)
	if def.Better == "higher" {
		return -d
	}
	return d
}

// pooled sums up one metric over the runs of a result set. Several runs
// pool their values; a single run stands for itself, and the range of
// the few samples it took stands for the quartile distance.
func pooled(recs []metricRecord) summary {
	if len(recs) == 1 {
		r := recs[0]
		return summary{Median: r.Value, Min: r.Min, Max: r.Max, Q1: r.Min, Q3: r.Max, N: r.N}
	}
	var vals []float64
	for _, r := range recs {
		vals = append(vals, r.Value)
	}
	return summarize(vals)
}

// resultSet indexes a result file by workload.
type resultSet struct {
	metrics           map[string]map[string][]metricRecord
	attempted, failed map[string]int
}

func index(rf *resultFile) resultSet {
	rs := resultSet{map[string]map[string][]metricRecord{}, map[string]int{}, map[string]int{}}
	for _, r := range rf.Runs {
		if rs.metrics[r.Workload] == nil {
			rs.metrics[r.Workload] = map[string][]metricRecord{}
		}
		for name, m := range r.Metrics {
			rs.metrics[r.Workload][name] = append(rs.metrics[r.Workload][name], m)
		}
		rs.attempted[r.Workload] += r.Attempted
		rs.failed[r.Workload] += r.Failed
	}
	return rs
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var sets [2]resultSet
	for i, p := range []string{oldPath, newPath} {
		rf, err := readResults(p)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		sets[i] = index(rf)
	}
	if bad := compareSets(sets[0], sets[1], stdout); bad > 0 {
		fmt.Fprintf(stdout, "%d row(s) regressed or failed more often\n", bad)
		return 1
	}
	return 0
}

// compareSets prints one row per (workload, metric) present on both
// sides and returns how many of them block: regressed metrics, and
// workloads whose share of failed operations rose.
func compareSets(old, cur resultSet, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "%-14s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "delta", "bound", "verdict")
	for _, wl := range workloads {
		om, cm := old.metrics[wl.name], cur.metrics[wl.name]
		if om == nil || cm == nil {
			continue
		}
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range list {
				if len(om[def.Name]) == 0 || len(cm[def.Name]) == 0 {
					continue
				}
				o, c := pooled(om[def.Name]), pooled(cm[def.Name])
				v := verdict(def, o, c)
				if v == verdictRegressed {
					bad++
				}
				delta := 0.0
				if o.Median != 0 {
					delta = 100 * (c.Median - o.Median) / math.Abs(o.Median)
				}
				fmt.Fprintf(w, "%-14s %-28s %14.6g %14.6g %+7.2f%% %6.3g  %s\n",
					wl.name, def.Name, o.Median, c.Median, delta, def.Bound, v)
			}
		}
		of := float64(old.failed[wl.name]) / float64(max(1, old.attempted[wl.name]))
		cf := float64(cur.failed[wl.name]) / float64(max(1, cur.attempted[wl.name]))
		state := verdictOK
		if cf > of {
			state = verdictRegressed
			bad++
		}
		fmt.Fprintf(w, "%-14s %-28s %14s %14s %8s %6s  %s\n", wl.name, "failed_ops/ops",
			fmt.Sprintf("%d/%d", old.failed[wl.name], old.attempted[wl.name]),
			fmt.Sprintf("%d/%d", cur.failed[wl.name], cur.attempted[wl.name]), "", "", state)
	}
	return bad
}
