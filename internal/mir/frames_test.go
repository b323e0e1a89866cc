package mir_test

import (
	"errors"
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
// a fresh string; sortDeep, whose qsort comparator recurses; and
// nullset, which hands an intrinsic a pointer with Wide bounds.
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

int cmpCopy(long *x, long *y) {
    long t[2];
    memcpy(t, x, 8);
    memcpy(t + 1, y, 8);
    if (t[0] < t[1]) { return 0 - 1; }
    if (t[0] > t[1]) { return 1; }
    return 0;
}

long sortCopy() {
    long *v = malloc(6 * 8);
    v[0] = 5; v[1] = 3; v[2] = 4; v[3] = 0; v[4] = 2; v[5] = 1;
    qsort(v, 6, 8, cmpCopy);
    long acc = 0;
    for (int i = 0; i < 6; i++) { acc = acc * 10 + v[i]; }
    free(v);
    return acc;
}

int libCmp(long *x, long *y) {
    if (*x < *y) { return 0 - 1; }
    if (*x > *y) { return 1; }
    return 0;
}

long libs(int n) {
    long *a = malloc(8 * sizeof(long));
    long *b = malloc(8 * sizeof(long));
    char *s = malloc(24);
    char *d = malloc(24);
    for (int i = 0; i < 16; i++) { s[i] = (char)(65 + i); }
    s[16] = (char)0;
    long acc = 0;
    for (int k = 0; k < n; k++) {
        memset(a, 0, 8 * sizeof(long));
        for (int i = 0; i < 8; i++) { a[i] = (long)((k + 7 * i) % 8); }
        memcpy(b, a, 8 * sizeof(long));
        memmove(a + 1, a, 7 * sizeof(long));
        qsort(b, 8, 8, libCmp);
        strcpy(d, s);
        strncpy(d, s, 8);
        acc += b[0] + b[7] * 2 + a[1] + (long)strlen(d);
    }
    free(a);
    free(b);
    free(s);
    free(d);
    return acc;
}

int at(int *v, int i) { return v[i]; } // v is a parameter: type-checked per call

int overrun(int n, int m) {
    int *v = malloc(8 * sizeof(int));
    int s = 0;
    for (int i = 0; i < n; i++) { s = s + at(v, (i * m) % 8); } // m < 0 would underrun: checked
    return s + v[8]; // one past the end: the run's only failing check, and its last
}

int nullset(int n) {
    char *t = 0; // a constant: its bounds register stays Wide
    memset(t, 0, 0);
    return n;
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

// nopHooks observes nothing; it makes the interpreter take its hooked
// paths.
type nopHooks struct{}

func (nopHooks) Access(uint64, uint64, bool, *ctypes.Type, string)   {}
func (nopHooks) Cast(uint64, *ctypes.Type, *ctypes.Type, string)     {}
func (nopHooks) Derive(uint64, uint64, bool, uint64, uint64, string) {}
func (nopHooks) PtrStore(uint64, uint64, string)                     {}
func (nopHooks) PtrLoad(uint64, uint64, string)                      {}

// TestIntrinsicCallsAllocFlat guards the intrinsic contexts: once warm,
// a Run allocates the same however many libc intrinsic calls it makes —
// memset, memcpy, memmove, strcpy, strncpy, strlen and qsort, whose
// comparator re-enters the interpreter — unhooked, hooked and under
// EffectiveSan.
func TestIntrinsicCallsAllocFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p := compileFrames(t)
	for _, c := range []struct {
		name  string
		eff   bool
		hooks mir.Hooks
	}{
		{"plain", false, nil},
		{"hooked", false, nopHooks{}},
		{"effectivesan", true, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			in, rt := newInterp(t, p, c.eff)
			if c.hooks != nil {
				var err error
				in, err = mir.New(p, mir.Options{Env: mir.NewPlainEnv(nil), Hooks: c.hooks})
				if err != nil {
					t.Fatal(err)
				}
			}
			allocs := func(n uint64) float64 {
				run(t, in, "libs", n)
				return testing.AllocsPerRun(20, func() { run(t, in, "libs", n) })
			}
			if lo, hi := allocs(2), allocs(40); lo != hi {
				t.Errorf("libs(2) allocates %v per Run, libs(40) %v: want no per-call allocation", lo, hi)
			}
			if rt != nil && rt.Reporter.Total() != 0 {
				t.Errorf("clean program reported:\n%s", rt.Reporter.Log())
			}
		})
	}
}

// TestAbortFoldsInlineTallies aborts a Run at its only failing bounds
// check, the last check it makes: the passing checks before it and the
// type checks, all of which the interpreter counted in the Run's own
// snapshot, still reach the counters, exactly as many as a logging run
// of the same program counts.
func TestAbortFoldsInlineTallies(t *testing.T) {
	p := compileFrames(t)
	ip, _ := instrument.Instrument(p, instrument.Options{Variant: instrument.Full})
	count := func(abortAfter uint64) core.StatsSnapshot {
		rt := core.NewRuntime(core.Options{Types: ip.Types, AbortAfter: abortAfter})
		in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = in.Run("overrun", 20, 1)
		var abort core.AbortError
		if got := errors.As(err, &abort); got != (abortAfter > 0) {
			t.Fatalf("AbortAfter %d: Run error %v", abortAfter, err)
		}
		if rt.Reporter.Total() != 1 {
			t.Fatalf("AbortAfter %d: %d reports, want 1", abortAfter, rt.Reporter.Total())
		}
		return rt.Stats()
	}
	logged, aborted := count(0), count(1)
	if aborted != logged {
		t.Errorf("aborted run's counters %+v\nlogging run's %+v", aborted, logged)
	}
	if aborted.BoundsChecks < 20 {
		t.Errorf("aborted run counted %d bounds checks, want the loop's passing ones too", aborted.BoundsChecks)
	}
	if aborted.TypeChecks < 20 {
		t.Errorf("aborted run counted %d type checks, want one per call at least", aborted.TypeChecks)
	}
}

// TestStepLimitMergesCounters stops a Run with a simulation error, the
// step limit: the checks it made before it stopped still reach the
// runtime's counters. Stopped at its last block (which frees and
// returns), a Run has made every check of the full Run, though not its
// frees; stopped midway, some but not all.
func TestStepLimitMergesCounters(t *testing.T) {
	p := compileFrames(t)
	ip, _ := instrument.Instrument(p, instrument.Options{Variant: instrument.Full})
	count := func(max uint64) (core.StatsSnapshot, uint64, error) {
		rt := core.NewRuntime(core.Options{Types: ip.Types})
		in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt), MaxSteps: max})
		if err != nil {
			t.Fatal(err)
		}
		_, steps, err := in.RunSteps("walks", 20)
		return rt.Stats(), steps, err
	}
	full, steps, err := count(0)
	if err != nil || full.TypeChecks == 0 || full.BoundsChecks == 0 {
		t.Fatalf("full run: %v, %d type and %d bounds checks", err, full.TypeChecks, full.BoundsChecks)
	}
	last, _, err := count(steps - 1)
	if err == nil {
		t.Fatalf("MaxSteps %d of %d: no error", steps-1, steps)
	}
	if last.Frees != 0 {
		t.Errorf("stopped at the last block: %d frees, want none", last.Frees)
	}
	if last.Frees = full.Frees; last != full {
		t.Errorf("stopped at the last block: counters %+v, full run %+v", last, full)
	}
	half, _, err := count(steps / 2)
	if err == nil {
		t.Fatalf("MaxSteps %d of %d: no error", steps/2, steps)
	}
	if half.TypeChecks == 0 || half.TypeChecks >= full.TypeChecks || half.BoundsChecks == 0 {
		t.Errorf("stopped midway: %d type and %d bounds checks, full run %d and %d",
			half.TypeChecks, half.BoundsChecks, full.TypeChecks, full.BoundsChecks)
	}
}

// TestIntrinsicTypeCheckMerged passes a null pointer, whose bounds
// register is Wide, to memset: the intrinsic type-checks it itself,
// counting into the Run's snapshot, and the check reaches the runtime's
// counters when the Run ends. It is the Run's only type check.
func TestIntrinsicTypeCheckMerged(t *testing.T) {
	p := compileFrames(t)
	ip, _ := instrument.Instrument(p, instrument.Options{Variant: instrument.Full})
	rt := core.NewRuntime(core.Options{Types: ip.Types})
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := in.Run("nullset", 3); err != nil || v != 3 {
		t.Fatalf("nullset(3) = %d, %v", v, err)
	}
	if s := rt.Stats(); s.TypeChecks != 1 || s.NullTypeChecks != 1 {
		t.Errorf("counted %d type checks, %d of them null; want the intrinsic's one null check", s.TypeChecks, s.NullTypeChecks)
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
// fits and grows the stack while qsort's caller's window is live; and
// with a comparator that calls memcpy, an intrinsic nested inside the
// qsort still running.
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
		if got := run(t, in, "sortCopy"); got != 12345 {
			t.Errorf("eff=%v sortCopy() = %d, want 12345", eff, got)
		}
		if rt != nil && rt.Reporter.Total() != 0 {
			t.Errorf("clean program reported:\n%s", rt.Reporter.Log())
		}
	}
}

// TestConcurrentRunsOneInterp runs one interpreter from several
// goroutines at different depths: each Run owns its frame stack and its
// check tallies, and the runtime's shared counter sink ends up holding
// exactly the counts of the same Runs made one after another (run it
// under -race).
func TestConcurrentRunsOneInterp(t *testing.T) {
	p := compileFrames(t)
	work := func(t *testing.T, in *mir.Interp, eff bool, g int) {
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
			if _, err := in.Run("libs", uint64(g+1)); err != nil {
				t.Error(err)
				return
			}
		}
	}
	for _, eff := range []bool{false, true} {
		in, rt := newInterp(t, p, eff)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				work(t, in, eff, g)
			}(g)
		}
		wg.Wait()
		if rt == nil {
			continue
		}
		serial, srt := newInterp(t, p, eff)
		for g := 0; g < 4; g++ {
			work(t, serial, eff, g)
		}
		got, want := rt.Stats(), srt.Stats()
		if got.BoundsChecks != want.BoundsChecks || got.BoundsNarrows != want.BoundsNarrows ||
			got.TypeChecks != want.TypeChecks || got.BoundsChecks == 0 {
			t.Errorf("concurrent Runs counted %d bounds checks, %d narrows, %d type checks; serial Runs %d, %d, %d",
				got.BoundsChecks, got.BoundsNarrows, got.TypeChecks,
				want.BoundsChecks, want.BoundsNarrows, want.TypeChecks)
		}
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
