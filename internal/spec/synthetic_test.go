package spec

import (
	"io"
	"testing"

	"repro/internal/sanitizers"
)

// TestSyntheticClean: the progen workloads are clean by construction —
// no reports, identical results, with check elision on and off.
func TestSyntheticClean(t *testing.T) {
	tools := []*sanitizers.Tool{
		sanitizers.ToolUninstrumented,
		sanitizers.ToolEffectiveSan,
		sanitizers.Ablated("no-opt", sanitizers.ToolEffectiveSan),
	}
	for _, b := range Synthetic() {
		var want uint64
		for i, tool := range tools {
			prog, err := b.Program()
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			res, err := tool.Exec(prog, b.Entry, io.Discard)
			if err != nil {
				t.Fatalf("%s under %s: %v", b.Name, tool.Name, err)
			}
			if res.Reporter.Total() > 0 {
				t.Errorf("%s under %s: FALSE POSITIVE\n%s", b.Name, tool.Name, res.Reporter.Log())
			}
			if i == 0 {
				want = res.Value
			} else if res.Value != want {
				t.Errorf("%s under %s: result %d, want %d", b.Name, tool.Name, res.Value, want)
			}
		}
	}
}

// The since-removed dominator-tree elision walk on the progen-diamond
// workload, measured at commit d72a461: the checks it elided, how many
// of those were cross-block, and the bounds checks its program executed.
const (
	diamondDomTreeElided       = 136
	diamondDomTreeCrossBlock   = 112
	diamondDomTreeBoundsChecks = 5169
)

// TestDiamondWorkloadHitsTheJoinGap: on the progen-diamond workload the
// path-sensitive pass elides STRICTLY more checks than the dominator-tree
// walk did — the join re-checks its diamond helpers exist to create.
func TestDiamondWorkloadHitsTheJoinGap(t *testing.T) {
	b := SyntheticByName("progen-diamond")
	if b == nil {
		t.Fatal("progen-diamond workload missing")
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sanitizers.ToolEffectiveSan.Exec(prog, b.Entry, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	psElided := ps.InstrStats.ElidedSubsume + ps.InstrStats.ElidedNarrows + ps.InstrStats.ElidedRechecks
	if psElided <= diamondDomTreeElided {
		t.Fatalf("path-sensitive elided %d checks, dom-tree %d: want strictly more (the diamond-join gap)",
			psElided, diamondDomTreeElided)
	}
	if ps.InstrStats.ElidedPathSensitive <= diamondDomTreeCrossBlock {
		t.Errorf("path-sensitive cross-block wins %d, dom-tree %d: want strictly more",
			ps.InstrStats.ElidedPathSensitive, diamondDomTreeCrossBlock)
	}
	// Strictly fewer surviving checks must show up at runtime too.
	if ps.Stats.BoundsChecks >= diamondDomTreeBoundsChecks {
		t.Errorf("path-sensitive executed %d bounds checks, dom-tree %d: want strictly fewer",
			ps.Stats.BoundsChecks, diamondDomTreeBoundsChecks)
	}
}

// TestInteriorWorkloadMissesFastPath: the progen-interior workload's
// hot checks arrive through interior pointers, so a significant share
// of type checks must bypass the exact-match fast path and resolve in
// the per-site inline caches — the workload the no-inline Fig. 8 bar
// needs in order to separate.
func TestInteriorWorkloadMissesFastPath(t *testing.T) {
	b := SyntheticByName("progen-interior")
	if b == nil {
		t.Fatal("progen-interior workload missing")
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sanitizers.ToolEffectiveSan.Exec(prog, b.Entry, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.TypeChecks == 0 {
		t.Fatal("no type checks ran")
	}
	offPath := st.TypeChecks - st.CheckFastPath
	if float64(offPath)/float64(st.TypeChecks) < 0.5 {
		t.Errorf("only %d/%d checks left the fast path; interior pointers not exercised",
			offPath, st.TypeChecks)
	}
	if st.InlineCacheHits == 0 {
		t.Error("inline caches never hit on the interior-pointer workload")
	}
}

// TestAllocHeavyWorkload: the alloc-heavy magazine workload is clean,
// deterministic, reachable through SyntheticByName, and actually
// allocation-bound — heap operations dominate its dynamic profile far
// beyond any Fig. 7 kernel's ratio.
func TestAllocHeavyWorkload(t *testing.T) {
	b := SyntheticByName("progen-alloc")
	if b == nil || b != nil && b.Name != AllocHeavy().Name {
		t.Fatal("progen-alloc must resolve through SyntheticByName")
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i, tool := range []*sanitizers.Tool{
		sanitizers.ToolUninstrumented,
		sanitizers.ToolEffectiveSan,
	} {
		res, err := tool.Exec(prog, b.Entry, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tool.Name, err)
		}
		if res.Reporter.Total() > 0 {
			t.Errorf("%s: FALSE POSITIVE\n%s", tool.Name, res.Reporter.Log())
		}
		if i == 0 {
			want = res.Value
		} else if res.Value != want {
			t.Errorf("%s: result %d, want %d", tool.Name, res.Value, want)
		}
		if tool == sanitizers.ToolEffectiveSan {
			ops := res.Stats.HeapAllocs + res.Stats.Frees
			if ops < 2000 {
				t.Errorf("alloc-heavy workload made only %d heap ops; not allocation-bound", ops)
			}
		}
	}
}
