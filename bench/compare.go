package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
)

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkDef is the part of BENCHMARK.json the comparison reads.
type benchmarkDef struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares one metric's runs on the parent and on the change,
// paired in run order (the i-th parent run with the i-th change run).
// A gain needs at least minPairs pairs, the change winning nine tenths
// of them (ties count for neither), and medians further apart than the
// parent's interquartile range. A regression is a change median worse
// than the parent's by more than bound, as a share of the parent's
// median. Otherwise the metric is unchanged — or unresolved when the
// parent's own spread is wider than the bound, unless every change run
// beats every parent run.
func judge(parent, change []float64, lowerBetter bool, bound float64) string {
	n := min(len(parent), len(change))
	if n < 2 {
		return unresolved
	}
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	mp, mc := median(parent), median(change)
	spread := iqr(parent)
	if n >= minPairs && 10*wins >= 9*n && better(mc, mp) && math.Abs(mc-mp) > spread {
		return improved
	}
	worseBy := (mc - mp) / mp
	if !lowerBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return worse
	}
	if spread/math.Abs(mp) > bound {
		best := parent[0]
		for _, p := range parent {
			if better(p, best) {
				best = p
			}
		}
		for _, c := range change {
			if !better(c, best) {
				return unresolved
			}
		}
	}
	return unchanged
}

// loadResults reads every result file in dir, in file-name order, and
// groups the results by workload.
func loadResults(dir string) (map[string][]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	sort.Strings(files)
	out := map[string][]*result{}
	for _, f := range files {
		var rf resultFile
		if err := readJSON(f, &rf); err != nil {
			return nil, err
		}
		for _, r := range rf.Results {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

// runCompare prints, per workload and end-to-end metric, both sides'
// medians and quartiles and the verdict.
func runCompare(w io.Writer, benchJSON, parentDir, changeDir string) error {
	var def benchmarkDef
	if err := readJSON(benchJSON, &def); err != nil {
		return err
	}
	parent, err := loadResults(parentDir)
	if err != nil {
		return err
	}
	change, err := loadResults(changeDir)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-8s %-20s %-10s %-36s %-36s %s\n", "workload", "metric", "verdict",
		"parent median [q1, q3]", "change median [q1, q3]", "pairs"); err != nil {
		return err
	}
	for _, wl := range workloads {
		p, c := parent[wl.name], change[wl.name]
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			v := judge(pv, cv, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-8s %-20s %-10s %-36s %-36s %d\n", wl.name, m.Name, v,
				describe(pv), describe(cv), min(len(pv), len(cv)))
		}
	}
	return nil
}

func values(rs []*result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.EndToEnd[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func describe(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("n=%d", len(xs))
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}
