package mir_test

import (
	"fmt"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/cc"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/progen"
	"repro/internal/spec"
)

// TestReplayKeepsSiteFacts: AnalyzeSafety classifies one function after
// another, each against the site flags the fixpoint left, while the
// replay solves may still set flags. A flag that made a site mortal, or
// a changed extent, would mean the functions classified before it used
// stale facts, and the verdicts would depend on the replay's map order.
// So on instrumented programs of the Fig. 7 kernels, the bugsuite and
// the benchmark's progen shapes, rooted and unrooted, the replay may
// only re-flag sites that were already mortal.
func TestReplayKeepsSiteFacts(t *testing.T) {
	type input struct{ name, src, entry string }
	var inputs []input
	for _, b := range spec.Benchmarks() {
		inputs = append(inputs, input{b.Name, b.Source, b.Entry})
	}
	for _, c := range bugsuite.Cases() {
		inputs = append(inputs, input{c.Name, c.Src, "main"})
	}
	for k := int64(1); k <= 8; k++ {
		opts := progen.Options{Types: 4, Funcs: 2, Rounds: 256, Diamonds: 4, Interior: true}
		switch k % 4 {
		case 1:
			opts.LoopHeavy = true
		case 2:
			opts.TempHeavy = true
		case 3:
			opts.StaticSafe = true
		case 0:
			opts.LibCalls = true
		}
		inputs = append(inputs, input{fmt.Sprintf("compile-%d", k), progen.Generate(k, opts), "main"})
	}
	for k := int64(1); k <= 4; k++ {
		inputs = append(inputs, input{fmt.Sprintf("checks-%d", k), progen.Generate(k, progen.Options{
			Types: 3, Rounds: 1600, Interior: true, Diamonds: 2,
			LoopHeavy: true, TempHeavy: true, LibCalls: true,
		}), "main"})
	}

	analyses, flagged := 0, 0
	for _, in := range inputs {
		p, err := cc.Compile(in.src, ctypes.NewTable())
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		// The static pass itself is off, so the analysis sees every
		// inserted check, as it does inside Instrument.
		for _, opts := range []instrument.Options{
			{Variant: instrument.Full, NoStaticElision: true},
			{Variant: instrument.BoundsOnly, NoStaticElision: true},
			{Variant: instrument.Full, NoOptimize: true},
		} {
			ip, _ := instrument.Instrument(p, opts)
			for _, roots := range [][]string{{in.entry}, nil} {
				changed, n := mir.ReplaySiteChanges(ip, roots)
				analyses++
				flagged += n
				for _, c := range changed {
					t.Errorf("%s %v roots=%v: replay changed %s", in.name, opts.Variant, roots, c)
				}
			}
		}
	}
	t.Logf("%d analyses; the replay re-flagged %d already-mortal sites", analyses, flagged)
}
