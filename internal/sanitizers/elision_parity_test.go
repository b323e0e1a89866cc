package sanitizers

import (
	"io"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/spec"
)

// elisionConfigs returns full EffectiveSan with its check elision on
// (the default) and off. Elision is performance-only, so every
// detection result must be identical across them.
func elisionConfigs() []*Tool {
	return []*Tool{
		ToolEffectiveSan,
		Ablated("no-opt", ToolEffectiveSan),
	}
}

// TestElisionDetectionParityFig1 runs the Fig. 1 error-injection corpus
// with elision on and off: every case must report exactly the same
// issues — a check the dataflow pass removes is one whose outcome an
// earlier check already determined.
func TestElisionDetectionParityFig1(t *testing.T) {
	tools := elisionConfigs()
	for _, c := range bugsuite.Cases() {
		prog, err := c.Program()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want := ""
		for i, tool := range tools {
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("%s under %s: %v", c.Name, tool.Name, err)
			}
			got := issueSummary(res)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: %s issues %q != %s issues %q",
					c.Name, tool.Name, got, tools[0].Name, want)
			}
		}
	}
}

// TestElisionDetectionParityFig7 proves the same parity over ALL 19
// Fig. 7 SPEC workloads: identical issue counts and identical program
// results with elision on and off, with the paper's issue column still
// exact — and the elided program never executing more checks. (At
// commit d72a461 the since-removed dominator-tree elision walk executed
// exactly as many checks as the dataflow pass on all 19 workloads;
// testdata/stats.golden pins those counts.)
func TestElisionDetectionParityFig7(t *testing.T) {
	tools := elisionConfigs()
	for _, b := range spec.Benchmarks() {
		prog, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		want := ""
		var wantVal uint64
		var psChecks, plainChecks uint64
		for i, tool := range tools {
			res, err := tool.Exec(prog, b.Entry, io.Discard)
			if err != nil {
				t.Fatalf("%s under %s: %v", b.Name, tool.Name, err)
			}
			switch i {
			case 0:
				psChecks = res.Stats.TypeChecks + res.Stats.BoundsChecks
			case 1:
				plainChecks = res.Stats.TypeChecks + res.Stats.BoundsChecks
			}
			if got := res.Reporter.NumIssues(); got != b.PaperIssues {
				t.Errorf("%s under %s: issues = %d, want %d (paper Fig. 7)",
					b.Name, tool.Name, got, b.PaperIssues)
			}
			got := issueSummary(res)
			if i == 0 {
				want = got
				wantVal = res.Value
				continue
			}
			if got != want {
				t.Errorf("%s: %s issues %q != %s issues %q",
					b.Name, tool.Name, got, tools[0].Name, want)
			}
			if res.Value != wantVal {
				t.Errorf("%s: %s result %d != %d (elision changed semantics)",
					b.Name, tool.Name, res.Value, wantVal)
			}
		}
		if psChecks > plainChecks {
			t.Errorf("%s: elided program executed %d checks, unoptimised %d: elision must never check more",
				b.Name, psChecks, plainChecks)
		}
	}
}

// The since-removed dominator-tree elision walk on the progen-diamond
// workload, measured at commit d72a461: its cross-block elisions, and
// the type plus bounds checks its program executed.
const (
	diamondDomTreeCrossBlock    = 112
	diamondDomTreeDynamicChecks = 6463
)

// TestDiamondStaticElisionGap pins the diamond-join gap in the
// counters rather than in wall-clock: on the branch-heavy progen
// workload, the path-sensitive dataflow statically elides checks at the
// diamond joins that the dominator-tree walk could not see, and the gap
// shows up again as fewer dynamically executed checks.
func TestDiamondStaticElisionGap(t *testing.T) {
	b := spec.SyntheticByName("progen-diamond")
	if b == nil {
		t.Fatal("progen-diamond workload missing")
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ToolEffectiveSan.Exec(prog, b.Entry, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The static gap: the dataflow removes strictly more checks across
	// blocks than the dominator walk did (the joins' re-checks).
	if got := ps.InstrStats.ElidedPathSensitive; got <= diamondDomTreeCrossBlock {
		t.Errorf("static cross-block elisions: path-sensitive %d <= dom-tree %d; diamond joins invisible",
			got, diamondDomTreeCrossBlock)
	}
	// And it is visible dynamically, not just statically.
	if got := ps.Stats.TypeChecks + ps.Stats.BoundsChecks; got >= diamondDomTreeDynamicChecks {
		t.Errorf("dynamic checks: path-sensitive %d >= dom-tree %d; the elision gap vanished at runtime",
			got, diamondDomTreeDynamicChecks)
	}
}
