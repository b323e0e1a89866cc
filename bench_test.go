package repro

import (
	"io"
	"math"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/harness"
	"repro/internal/instrument"
	"repro/internal/layout"
	"repro/internal/lowfat"
	"repro/internal/mem"
	"repro/internal/mir"
	"repro/internal/sanitizers"
	"repro/internal/spec"
)

// BenchmarkFig1CapabilityMatrix regenerates the Fig. 1 sanitizer
// capability matrix: the full error-injection corpus under all 13 tools.
func BenchmarkFig1CapabilityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7SpecSummary regenerates the Fig. 7 table: the 19 SPEC
// workloads under full EffectiveSan, counting checks and issues.
func BenchmarkFig7SpecSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig7(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var checks uint64
		for _, r := range rows {
			checks += r.TypeChecks + r.BoundsChecks
		}
		b.ReportMetric(float64(checks), "checks/op")
	}
}

// BenchmarkFig8Timings regenerates the Fig. 8 timing series: one
// sub-benchmark per configuration over all 19 SPEC workloads, so the
// -bench output is the figure's data.
func BenchmarkFig8Timings(b *testing.B) {
	type prepared struct {
		name  string
		prog  *mir.Program
		entry string
	}
	var progs []prepared
	for _, w := range append(spec.Benchmarks(), spec.Synthetic()...) {
		p, err := w.Program()
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prepared{w.Name, p, w.Entry})
	}
	// The paper's Fig. 8 bars plus the §5.3/§6.2 ablations (no
	// instrumentation optimisations, no caching at all, no per-site inline
	// caches, no check motion, no static elision) — the same nine bars
	// harness.Fig8 renders, from the same source.
	for _, cfg := range harness.Fig8Tools() {
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					if _, err := cfg.Exec(p.prog, p.entry, io.Discard); err != nil {
						b.Fatalf("%s: %v", p.name, err)
					}
				}
			}
		})
	}
}

// BenchmarkFig9Memory regenerates the Fig. 9 memory comparison and
// reports the overall overhead as a metric.
func BenchmarkFig9Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig9(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var base, eff uint64
		for _, r := range rows {
			base += r.BaselineBytes
			eff += r.EffBytes
		}
		b.ReportMetric((float64(eff)/float64(base)-1)*100, "mem-overhead-%")
	}
}

// BenchmarkFig10Browser regenerates the Fig. 10 browser series
// (concurrent sessions, instrumented vs uninstrumented) and reports the
// geomean relative time.
func BenchmarkFig10Browser(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig10(io.Discard, 1)
		if err != nil {
			b.Fatal(err)
		}
		prod, n := 1.0, 0
		for _, r := range rows {
			prod *= r.Relative
			n++
		}
		if n > 0 {
			b.ReportMetric(math.Pow(prod, 1/float64(n))*100, "relative-%")
		}
	}
}

// BenchmarkToolComparison regenerates the §6.2 tool-overhead comparison
// on a representative SPEC subset.
func BenchmarkToolComparison(b *testing.B) {
	subset := []string{"mcf", "hmmer", "lbm", "xalancbmk"}
	for i := 0; i < b.N; i++ {
		if _, err := harness.ToolComparison(io.Discard, subset); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTypeCheckCached measures the §5.3 type-check optimisation
// suite in isolation: an identical mixed check workload (fast-path base
// pointers, sub-object offsets, pointer members) against a runtime at
// each cache level. "inline" drives the per-site one-entry caches with a
// stable site ID per check site — the check-site-stable workload the
// paper's call-site caching targets — and beats "shared" (the sharded
// memo cache alone) because a hit is one pointer load and three compares
// with no hashing; "uncached" is the baseline that runs the layout-table
// match every time. The mixed sites walk the array's 64 elements, so
// only element 0's base pointer is an allocation base: the mixed cases
// take the fast path on 1 check in 320. "fastpath" checks only the
// allocation base against its own type, so every check takes the
// level-1 exact-match fast path. These cases call the public
// TypeCheck/TypeCheckAt, which merge each check's counters into the
// runtime's sink; "fastpath-into" runs the fast path as the interpreter
// runs it, through TypeCheckInto into a snapshot merged once at the end,
// as a Run does when it returns. The reported metrics show the
// mechanism: layout matches per op collapse and the per-level hit rates
// stay high. internal/harness's cost model takes its per-level
// type-check costs from the four public cases.
func BenchmarkTypeCheckCached(b *testing.B) {
	type site struct {
		off int64
		s   *ctypes.Type
	}
	for _, cfg := range []struct {
		name   string
		opts   core.Options
		inline bool // call TypeCheckAt with per-site IDs
		fast   bool // only the allocation base, against its own type
		into   bool // call TypeCheckInto with per-site IDs
	}{
		{"fastpath", core.Options{}, true, true, false},
		{"fastpath-into", core.Options{}, true, true, true},
		{"inline", core.Options{}, true, false, false},
		{"shared", core.Options{NoInlineCache: true}, false, false, false},
		{"uncached", core.Options{NoCheckCache: true, NoInlineCache: true}, false, false, false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			tb := ctypes.NewTable()
			opts := cfg.opts
			opts.Types = tb
			opts.Mode = core.ModeCount
			rt := core.NewRuntime(opts)
			tb.MustParse("struct S { int a[3]; char *s; }")
			T := tb.MustParse("struct T { float f; struct S t; }")
			const elems = 64
			p, err := rt.NewArray(T, elems, core.HeapAlloc)
			if err != nil {
				b.Fatal(err)
			}
			sz := uint64(T.Size())
			charPtr := tb.PointerTo(ctypes.Char)
			sites := []site{
				{0, T},           // element base vs the element type
				{8, ctypes.Int},  // t.a[0]
				{16, ctypes.Int}, // t.a[2]
				{24, charPtr},    // t.s
				{12, ctypes.Int}, // t.a[1]
			}
			walk := uint64(elems)
			if cfg.fast {
				sites, walk = sites[:1], 1
			}
			var counts core.StatsSnapshot
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := sites[i%len(sites)]
				q := p + uint64(i)%walk*sz + uint64(st.off)
				// One stable site ID per static check site, as the
				// instrument pass would assign.
				siteID := int64(i%len(sites)) + 1
				switch {
				case cfg.into:
					rt.TypeCheckInto(&counts, q, st.s, siteID, "bench")
				case cfg.inline:
					rt.TypeCheckAt(q, st.s, siteID, "bench")
				default:
					rt.TypeCheck(q, st.s, "bench")
				}
			}
			b.StopTimer()
			rt.MergeStats(counts)
			s := rt.Stats()
			b.ReportMetric(float64(s.LayoutMatches)/float64(b.N), "layout-matches/op")
			b.ReportMetric(float64(s.CheckFastPath)/float64(b.N)*100, "fastpath-%")
			b.ReportMetric(s.CheckCacheHitRate()*100, "shared-hit-%")
			b.ReportMetric(s.InlineCacheHitRate()*100, "inline-hit-%")
		})
	}
}

// --- Ablations (design choices called out in docs/ARCHITECTURE.md) ---

// BenchmarkAblationHashVsWalk compares the layout hash table lookup
// against recomputing L(T,k) and scanning it — the Fig. 6 lines 17-21
// loop that the table replaces (§5).
func BenchmarkAblationHashVsWalk(b *testing.B) {
	tb := ctypes.NewTable()
	tb.MustParse("struct S9 { int a[3]; char *s; }")
	T := tb.MustParse("struct T9 { float f; struct S9 t; }")
	tl := layout.Build(T)

	b.Run("hash-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := int64(i%32) & ^3
			tl.Match(ctypes.Int, k)
		}
	})
	b.Run("walk-L", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := int64(i%32) & ^3
			subs := layout.Of(T, k)
			for _, s := range subs {
				u := s.Type
				if u == ctypes.Int || (u.Kind == ctypes.KindArray && u.Elem == ctypes.Int) {
					break
				}
			}
		}
	})
}

// BenchmarkAblationMetaVsShadow compares metadata retrieval through
// low-fat pointer arithmetic (Base is pure arithmetic; the header is one
// load) against a shadow-map lookup, the scheme most other sanitizers
// use (§2.1).
func BenchmarkAblationMetaVsShadow(b *testing.B) {
	m := mem.New()
	alloc := lowfat.New(m, lowfat.Options{})
	var ptrs []uint64
	shadow := make(map[uint64][2]uint64)
	for i := 0; i < 1024; i++ {
		p, err := alloc.Alloc(uint64(16 + i%512))
		if err != nil {
			b.Fatal(err)
		}
		ptrs = append(ptrs, p+8) // interior pointers
		shadow[p] = [2]uint64{42, uint64(16 + i%512)}
	}
	b.Run("lowfat-meta", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			p := ptrs[i%len(ptrs)]
			base := lowfat.Base(p)
			acc += m.Load(base, 8)
		}
		_ = acc
	})
	b.Run("shadow-map", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			p := ptrs[i%len(ptrs)]
			base := lowfat.Base(p) // even finding the key needs the base
			acc += shadow[base][0]
		}
		_ = acc
	})
}

// BenchmarkAblationCheckMinimisation compares the Fig. 3 discipline
// (type-check inputs, bounds-check uses) against the naive
// type-check-every-dereference strawman on a pointer-heavy workload.
func BenchmarkAblationCheckMinimisation(b *testing.B) {
	w := spec.ByName("perlbench")
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts instrument.Options) {
		ip, _ := instrument.Instrument(prog, opts)
		for i := 0; i < b.N; i++ {
			rt := core.NewRuntime(core.Options{Types: prog.Types, Mode: core.ModeCount})
			in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := in.Run(w.Entry); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rt.Stats().TypeChecks), "typechecks/op")
		}
	}
	b.Run("schema", func(b *testing.B) {
		run(b, instrument.Options{Variant: instrument.Full})
	})
	b.Run("naive-per-deref", func(b *testing.B) {
		run(b, instrument.Options{Variant: instrument.Full, Naive: true})
	})
}

// BenchmarkAblationOptimizations measures the check-elision optimisations
// (§6: never-failing casts, subsumed bounds checks, redundant narrows).
func BenchmarkAblationOptimizations(b *testing.B) {
	w := spec.ByName("gcc")
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opts instrument.Options
	}{
		{"optimised", instrument.Options{Variant: instrument.Full}},
		{"no-optim", instrument.Options{Variant: instrument.Full, NoOptimize: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			ip, _ := instrument.Instrument(prog, cfg.opts)
			for i := 0; i < b.N; i++ {
				rt := core.NewRuntime(core.Options{Types: prog.Types, Mode: core.ModeCount})
				in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := in.Run(w.Entry); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationQuarantine measures the cost of enabling the free
// quarantine that upgrades reuse-after-free detection (§2.1).
func BenchmarkAblationQuarantine(b *testing.B) {
	src := `
int main() {
    long acc = 0;
    for (int i = 0; i < 5000; i++) {
        long *p = malloc(24 * sizeof(long));
        p[0] = (long)i;
        acc += p[0];
        free(p);
    }
    return (int)acc;
}`
	prog, err := cc.Compile(src, ctypes.NewTable())
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name       string
		quarantine uint64
	}{
		{"no-quarantine", 0},
		{"quarantine-1MiB", 1 << 20},
	} {
		tool := *sanitizers.ToolEffectiveSan
		tool.Name = cfg.name
		tool.Runtime.Quarantine = cfg.quarantine
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tool.Exec(prog, "main", io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
