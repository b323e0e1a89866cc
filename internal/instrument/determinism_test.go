package instrument

import (
	"reflect"
	"testing"
)

// TestInstrumentDeterministicAndPure pins what caching instrumented
// programs by their options would rely on. Over the verdict golden's
// corpus (the Fig. 7 kernels, the bugsuite and the benchmark's compile
// and checks progen shapes), under Full, BoundsOnly and NoOptimize:
// two Instrument calls return equal programs and Stats, and the input
// program is left unchanged. Programs are compared through Clone,
// which turns empty slices into nil: a freshly compiled program is not
// DeepEqual to its own clone.
func TestInstrumentDeterministicAndPure(t *testing.T) {
	for _, gp := range goldenPrograms() {
		prog := compileStatic(t, gp.src)
		before := prog.Clone()
		for _, opts := range []Options{
			{Variant: Full, StaticEntry: gp.entry},
			{Variant: BoundsOnly, StaticEntry: gp.entry},
			{Variant: Full, NoOptimize: true, StaticEntry: gp.entry},
		} {
			p1, st1 := Instrument(prog, opts)
			p2, st2 := Instrument(prog, opts)
			if !reflect.DeepEqual(p1.Clone(), p2.Clone()) {
				t.Errorf("%s %+v: two Instrument calls returned different programs", gp.name, opts)
			}
			if !reflect.DeepEqual(st1, st2) {
				t.Errorf("%s %+v: two Instrument calls returned different Stats:\n%+v\n%+v", gp.name, opts, st1, st2)
			}
			if !reflect.DeepEqual(prog.Clone(), before) {
				t.Fatalf("%s %+v: Instrument modified its input program", gp.name, opts)
			}
		}
	}
}
