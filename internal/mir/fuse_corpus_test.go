package mir_test

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/progen"
	"repro/internal/spec"
)

// TestFusionCorpusParity runs every Fig. 7 kernel and the bench `checks`
// progen programs under EffectiveSan three ways: fused, with the fused
// pairs and chains decoded away, and hooked (which fuses nothing). The
// value, step count, report log and every runtime counter must match.
func TestFusionCorpusParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 7 kernels three times")
	}
	type input struct {
		name  string
		prog  func() (*mir.Program, error)
		entry string
	}
	var inputs []input
	for _, b := range spec.Benchmarks() {
		inputs = append(inputs, input{b.Name, b.Program, b.Entry})
	}
	for k := int64(1); k <= 4; k++ {
		src := progen.Generate(k, progen.Options{
			Types: 3, Rounds: 1600, Interior: true, Diamonds: 2,
			LoopHeavy: true, TempHeavy: true, LibCalls: true,
		})
		inputs = append(inputs, input{fmt.Sprintf("checks-%d", k),
			func() (*mir.Program, error) { return cc.Compile(src, ctypes.NewTable()) }, "main"})
	}
	type result struct {
		v, steps uint64
		err, log string
		stats    core.StatsSnapshot
	}
	for _, c := range inputs {
		p, err := c.prog()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ip, _ := instrument.Instrument(p, instrument.Options{Variant: instrument.Full, StaticEntry: c.entry})
		var runs [3]result
		for i := range runs {
			rt := core.NewRuntime(core.Options{Types: ip.Types})
			opts := mir.Options{Env: mir.NewEffEnv(rt)}
			if i == 2 {
				opts.Hooks = nopHooks{}
			}
			in, err := mir.New(ip, opts)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				mir.Unfuse(in)
			}
			r := &runs[i]
			r.v, r.steps, err = in.RunSteps(c.entry)
			if err != nil {
				r.err = err.Error()
			}
			r.log, r.stats = rt.Reporter.Log(), rt.Stats()
		}
		if runs[0] != runs[1] || runs[0] != runs[2] {
			t.Errorf("%s: fused %+v\nunfused %+v\nhooked %+v", c.name, runs[0], runs[1], runs[2])
		}
		if runs[0].stats.TypeChecks == 0 || runs[0].stats.BoundsChecks == 0 {
			t.Errorf("%s: %d type and %d bounds checks, want both > 0",
				c.name, runs[0].stats.TypeChecks, runs[0].stats.BoundsChecks)
		}
	}
}
