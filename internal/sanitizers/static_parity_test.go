package sanitizers

import (
	"io"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/spec"
)

// staticConfigs returns full EffectiveSan with the static safety pass on
// (default) and off. The pass is performance-only — detection must be
// identical across both; the difftest matrix holds the same pair to
// byte-identical reports over the fuzzed corpus.
func staticConfigs() []*Tool {
	return []*Tool{
		ToolEffectiveSan,
		Ablated("no-static", ToolEffectiveSan),
	}
}

// TestStaticSafeWorkloadElision pins the Fig. 8 no-static story in the
// counters: on the progen workload built of constant-extent globals and
// provably-bounded loops, the interprocedural abstract interpretation
// deletes checks (ElidedStaticSafe > 0) that no dynamic pass can reach
// (each helper sees its pointer as a fresh parameter, so no dominating
// check exists to reuse) — strictly more checks are removed with the
// pass on than off, statically and dynamically, at identical results.
func TestStaticSafeWorkloadElision(t *testing.T) {
	b := spec.SyntheticByName("progen-staticsafe")
	if b == nil {
		t.Fatal("progen-staticsafe workload missing")
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	tools := staticConfigs()
	on, err := tools[0].Exec(prog, b.Entry, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	off, err := tools[1].Exec(prog, b.Entry, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if got := on.InstrStats.ElidedStaticSafe; got == 0 {
		t.Errorf("static safety pass deleted nothing on the staticsafe workload (%+v)", on.InstrStats)
	}
	if got := on.InstrStats.StaticUnsafeSites; got != 0 {
		t.Errorf("clean workload flagged %d STATIC-UNSAFE sites: %+v", got, on.InstrStats.StaticDiags)
	}
	if st := off.InstrStats; st.ElidedStaticSafe != 0 || st.ElidedStaticResidual != 0 ||
		st.StaticUnsafeSites != 0 {
		t.Errorf("no-static config charged static-pass counters: %+v", st)
	}

	// Strictly more checks removed with the pass on — a static
	// InstrStats comparison, not wall-clock: the no-static run still
	// gets every dynamic pass, so the gap is attributable to the
	// abstract interpretation alone.
	removed := func(r *RunResult) int {
		st := r.InstrStats
		return st.ElidedUpcasts + st.ElidedSubsume + st.ElidedNarrows +
			st.ElidedUnused + st.ElidedRechecks + st.ValueNumberedElisions +
			st.ElidedStaticSafe + st.ElidedStaticResidual
	}
	if removed(on) <= removed(off) {
		t.Errorf("checks removed: static %d <= no-static %d; the static pass won nothing the dynamic passes missed",
			removed(on), removed(off))
	}
	// And the gap is visible in executed checks, not just inserted ops.
	onDyn := on.Stats.TypeChecks + on.Stats.BoundsChecks
	offDyn := off.Stats.TypeChecks + off.Stats.BoundsChecks
	if onDyn >= offDyn {
		t.Errorf("dynamic checks: static %d >= no-static %d; the deletions vanished at runtime",
			onDyn, offDyn)
	}
	if on.Value != off.Value {
		t.Errorf("static pass changed the program result: %d != %d", on.Value, off.Value)
	}
	if issueSummary(on) != issueSummary(off) {
		t.Errorf("static pass changed detection: %q vs %q", issueSummary(on), issueSummary(off))
	}
	if got := on.Reporter.NumIssues(); got != 0 {
		t.Errorf("clean workload reported %d issues under the static pass", got)
	}
}

// TestStaticDetectionParityFig1 runs the Fig. 1 error-injection corpus
// across the static pair: deleting a check requires a proof it cannot
// fail, so WHICH issues are found must never change.
func TestStaticDetectionParityFig1(t *testing.T) {
	tools := staticConfigs()
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
