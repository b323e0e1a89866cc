package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// onePass runs a workload in-process for a single untimed-setup pass.
func onePass(t *testing.T, w *workload, seed int64, trace bool) *result {
	t.Helper()
	opts := runOpts{minPasses: 1}
	if trace {
		opts.minPasses = 2 // one untraced and one traced pass
		opts.trace = true
	}
	rd, err := measure(w, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rd.summarize()
}

// counts returns a result's count metrics, leaving out the Go runtime's
// GC cycles, which depend on timing.
func counts(r *result) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		if v, ok := r.PerLayer[m.name]; ok && m.unit == "count" && !strings.HasPrefix(m.name, "go.") {
			out[m.name] = v
		}
	}
	return out
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := onePass(t, w, 1, false)
			if !a.Correct || a.FailRatio != 0 || a.Attempted == 0 {
				t.Fatalf("fail_ratio %v (%d of %d): %v", a.FailRatio, a.Failed, a.Attempted, a.Failures)
			}
			for _, name := range []string{"total_s", "compile_s", "instrument_s", "run_s", "slowdown",
				"go_alloc_bytes", "rss_peak_bytes", "sim_heap_peak_bytes"} {
				if v := a.EndToEnd[name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if w.sharded {
				return // magazine traffic depends on how the workers interleave
			}
			b := onePass(t, w, 1, false)
			if ca, cb := counts(a), counts(b); !mapsEqual(ca, cb) {
				t.Errorf("counts differ between two runs of seed 1:\n%v\n%v", ca, cb)
			}
		})
	}
}

func mapsEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// The seed orders each pass; the inputs are the same for every seed.
func TestSeedOrdersPasses(t *testing.T) {
	w := workloadByName("spec")
	a, b := w.inputs(), w.inputs()
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatal("inputs differ between two generations")
	}
	order := func(seed int64) []int { return newRunner(w, seed).order.Perm(len(a)) }
	if !slices.Equal(order(1), order(1)) {
		t.Error("seed 1 gives two different orders")
	}
	if slices.Equal(order(1), order(2)) {
		t.Error("seeds 1 and 2 give the same order")
	}
}

// A wrong expectation must count as a failure, so fail_ratio can fire.
func TestWrongExpectationFails(t *testing.T) {
	w := *workloadByName("alloc")
	inputs := w.inputs
	w.inputs = func() []program {
		ps := inputs()
		ps[0].issues++
		return ps
	}
	r := onePass(t, &w, 1, false)
	if want := 1 / float64(len(inputs())); r.Correct || r.Failed != 1 || r.FailRatio != want {
		t.Fatalf("correct %v, failed %d of %d (fail_ratio %v), want exactly one failure (fail_ratio %v)",
			r.Correct, r.Failed, r.Attempted, r.FailRatio, want)
	}
	if len(r.Failures) != 1 || !strings.Contains(r.Failures[0], "distinct issues") {
		t.Errorf("failures = %q", r.Failures)
	}
}

func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	r := onePass(t, workloadByName("alloc"), 1, true)
	if !r.Correct {
		t.Fatalf("failures: %v", r.Failures)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += r.PerLayer["cpu."+l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v", sum)
	}
	for _, m := range perLayer {
		if _, ok := r.PerLayer[m.name]; !ok {
			t.Errorf("traced run lacks per-layer metric %s", m.name)
		}
	}
	if c := r.PerLayer["trace.coverage"]; c < 0.95 || c > 1 {
		t.Errorf("spans cover %v of the pass, want at least 0.95", c)
	}
	if r.PerLayer["mir.loads"] == 0 || r.PerLayer["core.type_malloc_calls"] == 0 {
		t.Errorf("traced counts missing: loads %v, type_malloc_calls %v",
			r.PerLayer["mir.loads"], r.PerLayer["core.type_malloc_calls"])
	}
}

// BENCHMARK.json lists exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []boundDef              `json:"end_to_end"`
		PerLayer  []boundDef              `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []boundDef, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(defs))
			return
		}
		for i, m := range defs {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}
