package sanitizers

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/ctypes"
	"repro/internal/progen"
	"repro/internal/spec"
)

const statsGoldenPath = "testdata/stats.golden"

// statsDump runs every Fig. 7 SPEC kernel under EffectiveSan in precise
// mode and renders each run's full counter snapshot, one counter per
// line: the check counts (type, bounds, narrow, escape), every §5.3
// cache level and the allocation and layout counters.
func statsDump(t *testing.T) string {
	var b strings.Builder
	for _, bm := range spec.Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ToolEffectiveSan.Exec(prog, bm.Entry, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		v := reflect.ValueOf(res.Stats)
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(&b, "spec/%s %s=%d\n", bm.Name, v.Type().Field(i).Name, v.Field(i).Uint())
		}
	}
	return b.String()
}

// TestStatsGolden pins the runtime counters of the SPEC kernels exactly:
// how the interpreter dispatches checks or tallies their counts may
// change, the counts may not. Regenerate deliberately with
// `go test ./internal/sanitizers -run StatsGolden -update`.
func TestStatsGolden(t *testing.T) {
	checkGolden(t, statsGoldenPath, statsDump(t))
}

// execTypeExplosion compiles the progen type-explosion program (seed 71)
// at n struct shapes and runs it uninstrumented and under counting
// EffectiveSan. The instrumented run must report no issues: the program
// is clean.
func execTypeExplosion(t *testing.T, n int) (plain, eff *RunResult) {
	t.Helper()
	src := progen.Generate(71, progen.Options{Types: 1, Funcs: 1, Rounds: 3, TypeExplosion: n})
	var res [2]*RunResult
	for i, tool := range []*Tool{ToolUninstrumented, ToolEffectiveSan.Counting()} {
		prog, err := cc.Compile(src, ctypes.NewTable())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res[i], err = tool.Exec(prog, "main", io.Discard); err != nil {
			t.Fatalf("n=%d under %s: %v", n, tool.Name, err)
		}
	}
	if issues := res[1].Reporter.NumIssues(); issues != 0 {
		t.Fatalf("n=%d: %d issues on a clean program", n, issues)
	}
	return res[0], res[1]
}

// TestLayoutMemBoundedResidency is the end-to-end witness for the layout
// counters the golden pins only on small programs: on type-explosion
// programs at 800 and 2000 struct shapes the intern pool shares cores
// between isomorphic shapes, so each distinct shape costs a wrapper
// rather than a full table, and resident layout bytes grow with the
// population (tables are never evicted).
func TestLayoutMemBoundedResidency(t *testing.T) {
	var resident [2]uint64
	for i, n := range []int{800, 2000} {
		_, eff := execTypeExplosion(t, n)
		if eff.Stats.LayoutTablesInterned == 0 {
			t.Errorf("n=%d: no layout tables interned on the isomorphism-heavy workload", n)
		}
		resident[i] = eff.Stats.LayoutResidentBytes()
		t.Logf("n=%d: built=%d interned=%d resident=%d B", n,
			eff.Stats.LayoutTablesBuilt, eff.Stats.LayoutTablesInterned, resident[i])
	}
	if resident[1] <= resident[0] {
		t.Errorf("resident layout bytes did not grow: %d B at 800 shapes, %d B at 2000",
			resident[0], resident[1])
	}
}

// TestLayoutCapValueParityTypeExplosion: layout interning must not change
// program semantics — the type-explosion programs at 800 and 2000 shapes
// compute the uninstrumented value under EffectiveSan.
func TestLayoutCapValueParityTypeExplosion(t *testing.T) {
	for _, n := range []int{800, 2000} {
		plain, eff := execTypeExplosion(t, n)
		if eff.Value != plain.Value {
			t.Errorf("n=%d: value %d, uninstrumented %d", n, eff.Value, plain.Value)
		}
	}
}
