package sanitizers

import (
	"io"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/spec"
)

// motionConfigs returns full EffectiveSan with the check-motion suite
// on (default) and off. Motion is performance-only — every detection
// result must be identical across the two.
func motionConfigs() []*Tool {
	return []*Tool{
		ToolEffectiveSan,
		Ablated("no-motion", ToolEffectiveSan),
	}
}

// TestMotionDetectionParityFig1 runs the Fig. 1 error-injection corpus
// across the motion matrix: hoisting a check to a preheader or copying
// it onto a loop-entry edge must never change WHICH issues are found —
// only how often the checks execute.
func TestMotionDetectionParityFig1(t *testing.T) {
	tools := motionConfigs()
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

// TestMotionDetectionParityFig7 proves the same parity over ALL 19
// Fig. 7 SPEC workloads plus the synthetic progen rows: identical issue
// sets, identical results, the paper's issue column still exact — and
// motion never EXECUTING more checks than no-motion, with a strict
// dynamic win on the loop-heavy and temporary-heavy workloads built to
// exercise it.
func TestMotionDetectionParityFig7(t *testing.T) {
	wantStrict := map[string]bool{"progen-loop": true, "progen-temp": true}
	benches := append(spec.Benchmarks(), spec.Synthetic()...)
	for _, b := range benches {
		prog, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		tools := motionConfigs()
		var motionChecks, plainChecks uint64
		want := ""
		var wantVal uint64
		for i, tool := range tools {
			res, err := tool.Exec(prog, b.Entry, io.Discard)
			if err != nil {
				t.Fatalf("%s under %s: %v", b.Name, tool.Name, err)
			}
			checks := res.Stats.TypeChecks + res.Stats.BoundsChecks + res.Stats.BoundsNarrows
			if i == 0 {
				motionChecks = checks
				want = issueSummary(res)
				wantVal = res.Value
				if st := res.InstrStats; wantStrict[b.Name] &&
					st.HoistedChecks+st.ValueNumberedElisions == 0 {
					t.Errorf("%s: motion pass inert (%+v); the workload exists to exercise it", b.Name, st)
				}
				continue
			}
			plainChecks = checks
			if st := res.InstrStats; st.HoistedChecks != 0 || st.PREInsertions != 0 ||
				st.ValueNumberedElisions != 0 {
				t.Errorf("%s: no-motion config moved checks: %+v", b.Name, st)
			}
			if got := issueSummary(res); got != want {
				t.Errorf("%s: %s issues %q != %s issues %q",
					b.Name, tool.Name, got, tools[0].Name, want)
			}
			if res.Value != wantVal {
				t.Errorf("%s: %s result %d != %d (motion changed semantics)",
					b.Name, tool.Name, res.Value, wantVal)
			}
			if bm := spec.ByName(b.Name); bm != nil {
				if got := res.Reporter.NumIssues(); got != bm.PaperIssues {
					t.Errorf("%s under %s: issues = %d, want %d (paper Fig. 7)",
						b.Name, tool.Name, got, bm.PaperIssues)
				}
			}
		}
		if motionChecks > plainChecks {
			t.Errorf("%s: motion executed %d dynamic checks, no-motion %d: motion must never check more",
				b.Name, motionChecks, plainChecks)
		}
		if wantStrict[b.Name] && motionChecks >= plainChecks {
			t.Errorf("%s: motion executed %d dynamic checks, no-motion %d: want strictly fewer on this workload",
				b.Name, motionChecks, plainChecks)
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
