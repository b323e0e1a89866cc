package mir_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/spec"
)

// TestFusionCorpusParity runs every Fig. 7 kernel under EffectiveSan
// with and without fused op pairs: value, step count, report log and
// every runtime counter must match.
func TestFusionCorpusParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 7 kernels twice")
	}
	type result struct {
		v, steps uint64
		err, log string
		stats    core.StatsSnapshot
	}
	for _, b := range spec.Benchmarks() {
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		ip, _ := instrument.Instrument(p, instrument.Options{Variant: instrument.Full, StaticEntry: b.Entry})
		var runs [2]result
		for i := range runs {
			rt := core.NewRuntime(core.Options{Types: ip.Types})
			in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				mir.Unfuse(in)
			}
			r := &runs[i]
			r.v, r.steps, err = in.RunSteps(b.Entry)
			if err != nil {
				r.err = err.Error()
			}
			r.log, r.stats = rt.Reporter.Log(), rt.Stats()
		}
		if runs[0] != runs[1] {
			t.Errorf("%s: fused %+v\nunfused %+v", b.Name, runs[0], runs[1])
		}
	}
}
