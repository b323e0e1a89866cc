package mir_test

import (
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
)

// framesSrc exercises the interpreter's frame stack: fib for call
// volume at shallow depth; deep, whose every activation reads its own
// registers after a deep callee returns; walk, which sends a pointer
// through every call so an instrumented build type- and bounds-checks
// each activation, loads included whose static type (int*) renders to
// a fresh string; and sortDeep, whose qsort comparator recurses.
const framesSrc = `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}

int deep(int n) {
    int a = n * 3;
    int b = n + 7;
    if (n == 0) { return 0; }
    int r = deep(n - 1);
    return r + a - b;
}

int walk(int **v, int i, int depth) {
    if (depth == 0) { return *v[i]; }
    return *v[i] + walk(v, (i + 1) % 8, depth - 1);
}

int walks(int n) {
    int *cells = malloc(8 * sizeof(int));
    int **v = malloc(8 * sizeof(int *));
    for (int i = 0; i < 8; i++) { cells[i] = i; v[i] = cells + i; }
    int s = 0;
    for (int k = 0; k < n; k++) { s = s + walk(v, k % 8, 12); }
    free(v);
    free(cells);
    return s;
}

int cmpDeep(long *x, long *y) {
    long d = (long)deep(40) - 1360; // deep(40) is 1360: d is 0
    if (*x < *y) { return d - 1; }
    if (*x > *y) { return d + 1; }
    return d;
}

int sortDeep(int depth) {
    long *v = malloc(6 * 8);
    v[0] = 5; v[1] = 3; v[2] = 4; v[3] = 0; v[4] = 2; v[5] = 1;
    int before = deep(depth);
    qsort(v, 6, 8, cmpDeep);
    int after = deep(depth);
    long acc = 0;
    for (int i = 0; i < 6; i++) { acc = acc * 10 + v[i]; }
    free(v);
    return (int)acc + before + after;
}
`

// deepWant is deep(n) in closed form: the sum over k in 1..n of 2k - 7.
func deepWant(n int) int64 { return int64(n*(n+1) - 7*n) }

func compileFrames(t testing.TB) *mir.Program {
	t.Helper()
	p, err := cc.Compile(framesSrc, ctypes.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newInterp returns an interpreter over p, uninstrumented or (eff)
// instrumented in full and run under EffectiveSan.
func newInterp(t testing.TB, p *mir.Program, eff bool) (*mir.Interp, *core.Runtime) {
	t.Helper()
	if !eff {
		in, err := mir.New(p, mir.Options{Env: mir.NewPlainEnv(nil)})
		if err != nil {
			t.Fatal(err)
		}
		return in, nil
	}
	ip, _ := instrument.Instrument(p, instrument.Options{Variant: instrument.Full})
	rt := core.NewRuntime(core.Options{Types: ip.Types})
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	return in, rt
}

func run(t testing.TB, in *mir.Interp, fn string, args ...uint64) int64 {
	t.Helper()
	v, err := in.Run(fn, args...)
	if err != nil {
		t.Fatalf("%s%v: %v", fn, args, err)
	}
	return int64(int32(v))
}

// TestRunAllocsFlatInCalls guards the frame stack: once warm, a Run
// allocates the same amount however many calls it makes — frames and
// passing checks cost no Go allocation per call.
func TestRunAllocsFlatInCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p := compileFrames(t)
	for _, c := range []struct {
		name   string
		eff    bool
		fn     string
		lo, hi uint64
	}{
		{"fib", false, "fib", 4, 16},
		{"walks", false, "walks", 2, 200},
		{"walks-effectivesan", true, "walks", 2, 200},
	} {
		t.Run(c.name, func(t *testing.T) {
			in, rt := newInterp(t, p, c.eff)
			allocs := func(n uint64) float64 {
				run(t, in, c.fn, n) // warm: globals, pages, caches
				return testing.AllocsPerRun(20, func() { run(t, in, c.fn, n) })
			}
			lo, hi := allocs(c.lo), allocs(c.hi)
			if lo != hi {
				t.Errorf("%s(%d) allocates %v per Run, %s(%d) %v: want no per-call allocation",
					c.fn, c.lo, lo, c.fn, c.hi, hi)
			}
			if rt != nil {
				if st := rt.Stats(); st.TypeChecks == 0 || st.BoundsChecks == 0 {
					t.Errorf("instrumented run made %d type and %d bounds checks, want both > 0",
						st.TypeChecks, st.BoundsChecks)
				}
				if rt.Reporter.Total() != 0 {
					t.Errorf("clean program reported:\n%s", rt.Reporter.Log())
				}
			}
		})
	}
}

// TestStackGrowthMidCall recurses far past the first stack segment:
// every caller reads its registers after a callee grew the stack, so a
// growth that moved or reused a live window changes the result.
func TestStackGrowthMidCall(t *testing.T) {
	p := compileFrames(t)
	for _, eff := range []bool{false, true} {
		in, _ := newInterp(t, p, eff)
		for _, n := range []int{0, 1, 50, 255, 256, 2000} {
			if got, want := run(t, in, "deep", uint64(n)), deepWant(n); got != want {
				t.Errorf("eff=%v deep(%d) = %d, want %d", eff, n, got, want)
			}
		}
	}
}

// TestQsortComparatorReentry sorts with a comparator that itself
// recurses, from callers at depths on both sides of a segment boundary,
// so the comparator's re-entry into exec from inside the intrinsic both
// fits and grows the stack while qsort's caller's window is live.
func TestQsortComparatorReentry(t *testing.T) {
	p := compileFrames(t)
	for _, eff := range []bool{false, true} {
		in, rt := newInterp(t, p, eff)
		for _, depth := range []int{0, 20, 40, 60, 600} {
			want := int64(12345) + 2*deepWant(depth) // v sorted: 0,1,2,3,4,5
			if got := run(t, in, "sortDeep", uint64(depth)); got != want {
				t.Errorf("eff=%v sortDeep(%d) = %d, want %d", eff, depth, got, want)
			}
		}
		if rt != nil && rt.Reporter.Total() != 0 {
			t.Errorf("clean program reported:\n%s", rt.Reporter.Log())
		}
	}
}

// TestConcurrentRunsOneInterp runs one interpreter from several
// goroutines at different depths: each Run owns its frame stack (run
// it under -race).
func TestConcurrentRunsOneInterp(t *testing.T) {
	p := compileFrames(t)
	for _, eff := range []bool{false, true} {
		in, _ := newInterp(t, p, eff)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					n := 100 + 300*g + i
					v, err := in.Run("deep", uint64(n))
					if err != nil {
						t.Error(err)
						return
					}
					if got := int64(int32(v)); got != deepWant(n) {
						t.Errorf("eff=%v deep(%d) = %d, want %d", eff, n, got, deepWant(n))
					}
					v, err = in.Run("walks", uint64(10+g))
					if err != nil {
						t.Error(err)
						return
					}
					if v == 0 {
						t.Errorf("eff=%v walks(%d) = 0", eff, 10+g)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// BenchmarkInterpCalls measures call dispatch. fib(20) makes 21,891
// calls that carry no pointers, so instrumentation adds nothing to them;
// walks(100) makes 1,301 calls that each pass a pointer on, so under
// EffectiveSan every call is type-checked and bounds-checked. Run with
// -benchmem: allocation per op is flat in the number of calls.
func BenchmarkInterpCalls(b *testing.B) {
	p := compileFrames(b)
	for _, c := range []struct {
		name  string
		eff   bool
		fn    string
		arg   uint64
		calls float64
	}{
		{"fib", false, "fib", 20, 21891},
		{"walks", false, "walks", 100, 1301},
		{"walks-effectivesan", true, "walks", 100, 1301},
	} {
		b.Run(c.name, func(b *testing.B) {
			in, _ := newInterp(b, p, c.eff)
			run(b, in, c.fn, c.arg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(b, in, c.fn, c.arg)
			}
			b.ReportMetric(c.calls, "calls/op")
		})
	}
}
