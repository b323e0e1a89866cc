package harness

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/browser"
	"repro/internal/bugsuite"
	"repro/internal/sanitizers"
	"repro/internal/spec"
)

// TestFig1Shape asserts the capability matrix reproduces the paper's
// verdicts row by row.
func TestFig1Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]string{ // Types, Bounds, UAF
		"CaVer":            {"Partial", "✗", "✗"},
		"TypeSan":          {"Partial", "✗", "✗"},
		"UBSan":            {"Partial", "✗", "✗"},
		"HexType":          {"Partial", "✗", "✗"},
		"libcrunch":        {"Partial", "✗", "✗"},
		"BaggyBounds":      {"✗", "Partial", "✗"},
		"LowFat":           {"✗", "Partial", "✗"},
		"Intel MPX":        {"✗", "✓", "✗"},
		"SoftBound":        {"✗", "✓", "✗"},
		"CETS":             {"✗", "✗", "✓"},
		"AddressSanitizer": {"✗", "Partial", "Partial"},
		"SoftBound+CETS":   {"✗", "✓", "✓"},
		"EffectiveSan":     {"✓", "✓", "Partial"},
	}
	if len(rows) != len(want) {
		t.Fatalf("matrix has %d rows, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		w, ok := want[row.Tool]
		if !ok {
			t.Errorf("unexpected tool %q", row.Tool)
			continue
		}
		got := [3]string{
			row.Columns[bugsuite.TypeConfusion].Verdict(),
			row.Columns[bugsuite.BoundsOverflow].Verdict(),
			row.Columns[bugsuite.Temporal].Verdict(),
		}
		if got != w {
			t.Errorf("%s: %v, want %v (paper Fig. 1)", row.Tool, got, w)
		}
	}
	if !strings.Contains(buf.String(), "EffectiveSan") {
		t.Error("rendered table incomplete")
	}
}

// TestFig7Shape asserts the issue column matches the paper exactly and
// check counters are live.
func TestFig7Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig7(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("%d rows, want 19", len(rows))
	}
	for _, r := range rows {
		if r.Issues != r.PaperIssues {
			t.Errorf("%s: issues %d, want %d", r.Name, r.Issues, r.PaperIssues)
		}
		if r.TypeChecks == 0 || r.BoundsChecks == 0 {
			t.Errorf("%s: dead counters %+v", r.Name, r)
		}
	}
}

// TestFig8Ordering asserts the Fig. 8 ordering on the cost-model column
// (RunCost), which is deterministic: full > bounds > type >
// uninstrumented (geomean overhead), and a full overhead of at least
// minFullCostOverhead, so instrumentation that went inert fails. The
// wall-clock overheads are logged, not asserted: since the interpreter
// got faster, their run-to-run noise crosses both assertions.
func TestFig8Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Fig. 8 bar")
	}
	// The full bar's cost overhead is 0.33 on this tree; a quarter is the
	// floor the wall-clock test asserted before the cost column existed.
	const minFullCostOverhead = 0.25
	var buf bytes.Buffer
	rows, err := Fig8(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every bar must be present with a positive timing and cost, on the
	// 19 SPEC rows and the three synthetic progen rows. The bar list
	// comes from the canonical Fig8BarNames, never hand-copied.
	wantBars := Fig8BarNames()
	if len(wantBars) != 8 {
		t.Fatalf("%d bars, want 8: %v", len(wantBars), wantBars)
	}
	if len(rows) != 22 {
		t.Fatalf("%d rows, want 22 (19 SPEC + 3 progen)", len(rows))
	}
	for _, r := range rows {
		if len(r.Seconds) != len(wantBars) || len(r.Cost) != len(wantBars) {
			t.Fatalf("%s: %d timed and %d costed bars, want %d", r.Name, len(r.Seconds), len(r.Cost), len(wantBars))
		}
		for _, bar := range wantBars {
			if r.Seconds[bar] <= 0 || r.Cost[bar] <= 0 {
				t.Errorf("%s: bar %q missing or non-positive", r.Name, bar)
			}
		}
	}
	full := CostOverheadGeomean(rows, "EffectiveSan")
	bounds := CostOverheadGeomean(rows, "EffectiveSan-bounds")
	typ := CostOverheadGeomean(rows, "EffectiveSan-type")
	t.Logf("cost overhead: full=%.4f bounds=%.4f type=%.4f", full, bounds, typ)
	t.Logf("wall-clock overhead (not asserted): full=%.2f bounds=%.2f type=%.2f",
		OverheadGeomean(rows, "EffectiveSan"), OverheadGeomean(rows, "EffectiveSan-bounds"),
		OverheadGeomean(rows, "EffectiveSan-type"))
	if !(full > bounds && bounds > typ && typ > 0) {
		t.Errorf("cost overhead ordering violated: full=%.4f bounds=%.4f type=%.4f, want full > bounds > type > 0",
			full, bounds, typ)
	}
	if full < minFullCostOverhead {
		t.Errorf("full cost overhead %.4f below %.2f; instrumentation inert?", full, minFullCostOverhead)
	}
}

// TestRunCostDeterministic runs one kernel twice under full EffectiveSan:
// the step count, every counter and so the cost must repeat exactly.
func TestRunCostDeterministic(t *testing.T) {
	b := spec.Benchmarks()[0]
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	var costs [2]float64
	for i := range costs {
		res, err := sanitizers.ToolEffectiveSan.Counting().Exec(prog, b.Entry, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps == 0 || res.Stats.TypeChecks == 0 {
			t.Fatalf("%s: dead counts: %d steps, %d type checks", b.Name, res.Steps, res.Stats.TypeChecks)
		}
		costs[i] = RunCost(res.Steps, res.Stats)
	}
	if costs[0] != costs[1] {
		t.Fatalf("%s: cost %v then %v", b.Name, costs[0], costs[1])
	}
}

// TestFig9Overhead asserts the memory overhead is modest (the paper
// reports ~12%; the simulation must stay the same order of magnitude,
// not multiples like shadow-memory schemes).
func TestFig9Overhead(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig9(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var base, eff uint64
	for _, r := range rows {
		base += r.BaselineBytes
		eff += r.EffBytes
	}
	oh := float64(eff)/float64(base) - 1
	if oh < 0 || oh > 0.8 {
		t.Errorf("memory overhead %.2f out of plausible range [0, 0.8]", oh)
	}
}

// TestFig10Shape asserts the browser workloads run concurrently, each
// reports exactly its seeded issues, one repeat's range is its bar, and
// the overhead exceeds parity (temporary-object effect).
func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	var buf bytes.Buffer
	rows, err := Fig10(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	benches := browser.Benchmarks()
	if len(rows) != len(benches) || len(rows) != 7 {
		t.Fatalf("%d rows, want 7", len(rows))
	}
	for i, r := range rows {
		if b := benches[i]; r.Name != b.Name || r.Issues != b.Issues {
			t.Errorf("row %d: %s with %d issues, want %s with %d", i, r.Name, r.Issues, b.Name, b.Issues)
		}
		// One repeat has one ratio: the range collapses onto the bar.
		if r.RelativeLo != r.Relative || r.RelativeHi != r.Relative {
			t.Errorf("%s: range %v–%v around one repeat's bar %v", r.Name, r.RelativeLo, r.RelativeHi, r.Relative)
		}
	}
	// Per-workload timings are noisy when the test suite itself runs in
	// parallel on few cores; the aggregate must still show overhead.
	logSum := 0.0
	for _, r := range rows {
		logSum += math.Log(r.Relative)
	}
	if geomean := math.Exp(logSum / float64(len(rows))); geomean < 1.05 {
		t.Errorf("browser geomean relative time %.2f; instrumentation overhead invisible", geomean)
	}
}

// TestToolComparison runs the §6.2 comparison on a small subset and
// checks structural expectations: every tool yields a row, and the
// metadata-heavy tools cost more than the cast checkers.
func TestToolComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	var buf bytes.Buffer
	rows, err := ToolComparison(&buf, []string{"mcf", "lbm"})
	if err != nil {
		t.Fatal(err)
	}
	oh := map[string]float64{}
	for _, r := range rows {
		oh[r.Name] = r.Overhead
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows, want 15", len(rows))
	}
	if !(oh["SoftBound"] > oh["TypeSan"]) {
		t.Errorf("per-pointer metadata (%.2f) should cost more than cast checks (%.2f)",
			oh["SoftBound"], oh["TypeSan"])
	}
	if !strings.Contains(buf.String(), "SoftBound+CETS") {
		t.Error("rendered table incomplete")
	}
}
