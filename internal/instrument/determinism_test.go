package instrument

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/mir"
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

// nopHooks is a Hooks that observes nothing; setting it makes mir.New
// decode without fused op pairs and chains.
type nopHooks struct{}

func (nopHooks) Access(uint64, uint64, bool, *ctypes.Type, string)   {}
func (nopHooks) Cast(uint64, *ctypes.Type, *ctypes.Type, string)     {}
func (nopHooks) Derive(uint64, uint64, bool, uint64, uint64, string) {}
func (nopHooks) PtrStore(uint64, uint64, string)                     {}
func (nopHooks) PtrLoad(uint64, uint64, string)                      {}

// TestDecodedProgramImmutable pins the last property caching
// instrumented programs would rely on: running a program never changes
// it. Every instrumented program of the determinism corpus is decoded by
// mir.New with hooks (unfused) and without (fused), run once, then
// decoded and run again from two goroutines at the same time, each with
// its own runtime, as concurrent Execs sharing one cached program
// would. The program must still equal a clone taken before the first
// decode. Runs stop at a step budget: the property concerns decoding
// and executing, not reaching the end.
func TestDecodedProgramImmutable(t *testing.T) {
	const budget = 1 << 17
	for _, gp := range goldenPrograms() {
		prog := compileStatic(t, gp.src)
		for _, opts := range []Options{
			{Variant: Full, StaticEntry: gp.entry},
			{Variant: BoundsOnly, StaticEntry: gp.entry},
			{Variant: Full, NoOptimize: true, StaticEntry: gp.entry},
		} {
			ip, _ := Instrument(prog, opts)
			before := ip.Clone()
			globals := make([]mir.Global, len(ip.Globals))
			for i, g := range ip.Globals {
				globals[i] = *g
			}
			for _, hooks := range []mir.Hooks{nil, nopHooks{}} {
				run := func() error {
					rt := core.NewRuntime(core.Options{Types: ip.Types, Mode: core.ModeCount})
					in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt), Hooks: hooks, MaxSteps: budget})
					if err != nil {
						return err
					}
					if _, err := in.Run(gp.entry); err != nil && !strings.Contains(err.Error(), "step limit") {
						return err
					}
					return nil
				}
				if err := run(); err != nil {
					t.Fatalf("%s %+v hooks=%v: %v", gp.name, opts, hooks != nil, err)
				}
				var wg sync.WaitGroup
				errs := make([]error, 2)
				for g := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[g] = run()
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatalf("%s %+v hooks=%v concurrent: %v", gp.name, opts, hooks != nil, err)
					}
				}
				if !reflect.DeepEqual(ip.Clone(), before) {
					t.Fatalf("%s %+v hooks=%v: decoding or running changed the program", gp.name, opts, hooks != nil)
				}
				for i, g := range ip.Globals {
					if *g != globals[i] {
						t.Fatalf("%s %+v hooks=%v: global %s changed", gp.name, opts, hooks != nil, g.Name)
					}
				}
			}
		}
	}
}
