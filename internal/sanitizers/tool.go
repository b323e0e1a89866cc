package sanitizers

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
)

// Tool is one runnable sanitizer configuration: either an EffectiveSan
// instrumentation variant or a runtime-interception baseline. Tools are
// stateless descriptors; every Exec builds a fresh environment, so runs
// are independent.
type Tool struct {
	Name string
	// Variant is the EffectiveSan instrumentation level; baselines use
	// instrument.None plus a sanitizer factory.
	Variant instrument.Variant
	// MakeSan builds the baseline sanitizer; nil for EffectiveSan
	// variants and the uninstrumented baseline.
	MakeSan func() Sanitizer
	// Quarantine configures the EffectiveSan allocator's quarantine.
	Quarantine uint64
	// Mode selects the EffectiveSan reporter mode. The zero value is
	// ModeLog; performance runs use ModeCount, as in the paper ("counting
	// mode is used for measuring performance", §6).
	Mode core.Mode
	// CheckCache sizes the runtime's §5.3 shared type-check memo cache
	// (0 = default, negative = disabled) — core.Options.CheckCacheSize.
	CheckCache int
	// NoInlineCache disables the runtime's §5.3 per-site inline caches
	// (the "no-inline" Fig. 8 ablation) — core.Options.NoInlineCache.
	NoInlineCache bool
	// NoOptimize disables the instrumentation check-elision optimisations
	// (the Fig. 8 "no-opt" configuration).
	NoOptimize bool
	// NoCheckMotion disables the §5.3 check-motion suite — loop-invariant
	// check hoisting, partial-redundancy insertion and value-numbered
	// provenance in the elision lattice — leaving check removal on (the
	// "no-motion" Fig. 8 ablation) — instrument.Options.NoCheckMotion.
	NoCheckMotion bool
	// NoStaticElision disables the interprocedural static safety
	// analysis, so no check is deleted by compile-time proof alone (the
	// "no-static" Fig. 8 ablation) —
	// instrument.Options.NoStaticElision.
	NoStaticElision bool
	// NoMagazines makes sharded workers allocate directly from the
	// shared central heap, through per-worker lanes (lowfat.Lane: the
	// central mutex on every operation, fresh slots in per-worker runs),
	// instead of through per-worker magazines (the serialized-allocator
	// ablation for the alloc-heavy Fig. 10 row). Single-threaded Exec
	// never uses magazines, so the knob only affects ExecSharded /
	// Threads > 1.
	NoMagazines bool
	// Threads > 1 makes Exec run the entry once per worker goroutine
	// against one shared runtime (the §6.1 multi-threaded mode; see
	// ExecSharded for the pool semantics). 0 and 1 both mean the classic
	// single-threaded Exec. Only EffectiveSan variants and the
	// uninstrumented baseline support it.
	Threads int
}

// Counting returns a copy of the tool with the reporter in counting mode.
func (t *Tool) Counting() *Tool {
	cp := *t
	cp.Mode = core.ModeCount
	return &cp
}

// Uncached returns a copy of the tool with every §5.3 check-cache level
// disabled — the per-site inline caches, the shared memo cache and the
// exact-match fast path (the no-caching ablation).
func (t *Tool) Uncached() *Tool {
	cp := *t
	cp.CheckCache = -1
	cp.NoInlineCache = true
	return &cp
}

// WithoutInlineCache returns a copy of the tool with only the per-site
// inline caches disabled, leaving the shared memo cache on — for
// comparing the two cache levels' hit rates.
func (t *Tool) WithoutInlineCache() *Tool {
	cp := *t
	cp.NoInlineCache = true
	return &cp
}

// WithoutOptimizations returns a copy of the tool with the
// instrumentation check-elision optimisations disabled (the Fig. 8
// "no-opt" ablation).
func (t *Tool) WithoutOptimizations() *Tool {
	cp := *t
	cp.NoOptimize = true
	return &cp
}

// WithoutCheckMotion returns a copy of the tool with the check-motion
// suite (hoisting, PRE, value-numbered provenance) disabled — the
// ablation that prices what moving checks buys over removing them.
func (t *Tool) WithoutCheckMotion() *Tool {
	cp := *t
	cp.NoCheckMotion = true
	return &cp
}

// WithoutMagazines returns a copy of the tool whose sharded workers
// share the central heap lock on every Alloc/Free instead of caching
// slots in per-worker magazines — the ablation that prices the
// allocator de-serialization.
func (t *Tool) WithoutMagazines() *Tool {
	cp := *t
	cp.NoMagazines = true
	return &cp
}

// WithoutStaticElision returns a copy of the tool with the
// interprocedural static safety pass disabled: every check a
// compile-time proof would have deleted stays in the program (the
// "no-static" Fig. 8 ablation, and the difftest matrix's witness that
// the pass never changes detection).
func (t *Tool) WithoutStaticElision() *Tool {
	cp := *t
	cp.NoStaticElision = true
	return &cp
}

// Named returns a copy of the tool under a different display name (for
// ablation bars).
func (t *Tool) Named(name string) *Tool {
	cp := *t
	cp.Name = name
	return &cp
}

// Threaded returns a copy of the tool that executes on n worker
// goroutines sharing one runtime (the cmd/effbench -threads flag).
func (t *Tool) Threaded(n int) *Tool {
	cp := *t
	cp.Threads = n
	return &cp
}

// InstrumentOptions returns the instrumentation options for running
// entry under the tool — the one mapping from Tool knobs to
// instrument.Options, shared by Exec, ExecSharded and cmd/effsan.
func (t *Tool) InstrumentOptions(entry string) instrument.Options {
	return instrument.Options{
		Variant:         t.Variant,
		NoOptimize:      t.NoOptimize,
		NoCheckMotion:   t.NoCheckMotion,
		NoStaticElision: t.NoStaticElision,
		StaticEntry:     entry,
	}
}

// RuntimeOptions returns the EffectiveSan runtime options for a program
// with type table types — the one mapping from Tool knobs to
// core.Options, shared by Exec, ExecSharded and cmd/effsan.
func (t *Tool) RuntimeOptions(types *ctypes.Table) core.Options {
	return core.Options{
		Types:          types,
		Mode:           t.Mode,
		Quarantine:     t.Quarantine,
		CheckCacheSize: t.CheckCache,
		NoInlineCache:  t.NoInlineCache,
	}
}

// RunResult reports one Exec.
type RunResult struct {
	Value    uint64
	Reporter *core.Reporter
	Stats    core.StatsSnapshot // EffectiveSan runtime counters (zero for baselines)
	// InstrStats reports what the instrumentation pass did (check
	// insertion and §5.3 elision counters; zero for baselines and the
	// uninstrumented tool) — tests assert elision attribution on it.
	InstrStats instrument.Stats
	Elapsed    time.Duration
	// Steps is the number of MIR instructions the run executed
	// (mir.Interp.RunSteps): deterministic, unlike Elapsed. Zero when
	// Threads > 1 routed the run through the sharded pool.
	Steps    uint64
	HeapPeak uint64 // peak live heap bytes
	MemPages int64  // simulated memory materialised (bytes)
	// Workers carries the per-worker breakdown when Threads > 1 routed
	// the run through the sharded pool (nil for single-threaded runs).
	Workers []WorkerStats
}

// Exec runs prog's entry function under the tool and returns the result.
// The program must be uninstrumented; EffectiveSan variants instrument a
// copy internally. With Threads > 1 the entry runs once per worker
// goroutine over one shared runtime (args are not supported in that
// mode) and Stats is the aggregate across workers.
func (t *Tool) Exec(prog *mir.Program, entry string, out io.Writer, args ...uint64) (*RunResult, error) {
	if t.Threads > 1 {
		if len(args) > 0 {
			return nil, fmt.Errorf("sanitizers: %s: Exec args are not supported with Threads > 1", t.Name)
		}
		sr, err := t.ExecSharded(prog, entry, t.Threads, t.Threads, out)
		if err != nil {
			return nil, err
		}
		return &RunResult{
			Value: sr.Value, Reporter: sr.Reporter, Stats: sr.Stats,
			InstrStats: sr.InstrStats,
			Elapsed:    sr.Wall, HeapPeak: sr.HeapPeak, MemPages: sr.MemPages,
			Workers: sr.Workers,
		}, nil
	}
	res := &RunResult{}
	var in *mir.Interp
	var err error
	switch {
	case t.MakeSan != nil:
		san := t.MakeSan()
		res.Reporter = san.Reporter()
		in, err = mir.New(prog, mir.Options{Env: san, Hooks: san, Out: out})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res.Value, res.Steps, err = in.RunSteps(entry, args...)
		res.Elapsed = time.Since(start)
		if s, ok := san.(interface{ HeapStats() (uint64, int64) }); ok {
			res.HeapPeak, res.MemPages = s.HeapStats()
		} else if b, ok := san.(*Uninstrumented); ok {
			st := b.heap.Stats()
			res.HeapPeak = st.Peak
			res.MemPages = b.heap.Mem().TouchedBytes()
		}
	case t.Variant == instrument.None:
		env := mir.NewPlainEnv(nil)
		in, err = mir.New(prog, mir.Options{Env: env, Out: out})
		if err != nil {
			return nil, err
		}
		res.Reporter = core.NewReporter(core.ModeLog, 0)
		start := time.Now()
		res.Value, res.Steps, err = in.RunSteps(entry, args...)
		res.Elapsed = time.Since(start)
		res.HeapPeak = env.Heap().Stats().Peak
		res.MemPages = env.Mem().TouchedBytes()
	default:
		ip, ist := instrument.Instrument(prog, t.InstrumentOptions(entry))
		res.InstrStats = ist
		rt := core.NewRuntime(t.RuntimeOptions(prog.Types))
		res.Reporter = rt.Reporter
		in, err = mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt), Out: out})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res.Value, res.Steps, err = in.RunSteps(entry, args...)
		res.Elapsed = time.Since(start)
		res.Stats = rt.Stats()
		res.HeapPeak = rt.Heap().Stats().Peak
		res.MemPages = rt.Mem().TouchedBytes()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// HeapStats lets baselines expose allocator statistics to Exec.
func (b *base) HeapStats() (uint64, int64) {
	return b.heap.Stats().Peak, b.heap.Mem().TouchedBytes()
}

// EffectiveSan variants.
var (
	ToolUninstrumented = &Tool{Name: "Uninstrumented", Variant: instrument.None}
	ToolEffectiveSan   = &Tool{Name: "EffectiveSan", Variant: instrument.Full}
	ToolEffBounds      = &Tool{Name: "EffectiveSan-bounds", Variant: instrument.BoundsOnly}
	ToolEffType        = &Tool{Name: "EffectiveSan-type", Variant: instrument.TypeOnly}
)

// Baselines returns the modelled competing sanitizers in the row order of
// Fig. 1.
func Baselines() []*Tool {
	return []*Tool{
		{Name: "CaVer", MakeSan: func() Sanitizer { return NewCaVer() }},
		{Name: "TypeSan", MakeSan: func() Sanitizer { return NewTypeSan() }},
		{Name: "UBSan", MakeSan: func() Sanitizer { return NewUBSan() }},
		{Name: "HexType", MakeSan: func() Sanitizer { return NewHexType() }},
		{Name: "libcrunch", MakeSan: func() Sanitizer { return NewLibcrunch() }},
		{Name: "BaggyBounds", MakeSan: func() Sanitizer { return NewBaggy() }},
		{Name: "LowFat", MakeSan: func() Sanitizer { return NewLowFatSan() }},
		{Name: "Intel MPX", MakeSan: func() Sanitizer { return NewMPX() }},
		{Name: "SoftBound", MakeSan: func() Sanitizer { return NewSoftBound() }},
		{Name: "CETS", MakeSan: func() Sanitizer { return NewCETS() }},
		{Name: "AddressSanitizer", MakeSan: func() Sanitizer { return NewASan() }},
		{Name: "SoftBound+CETS", MakeSan: func() Sanitizer { return NewSoftBoundCETS() }},
	}
}

// All returns every tool: the Fig. 1 baselines followed by EffectiveSan.
func All() []*Tool {
	return append(Baselines(), ToolEffectiveSan)
}
