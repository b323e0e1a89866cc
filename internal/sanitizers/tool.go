package sanitizers

import (
	"errors"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/lowfat"
	"repro/internal/mir"
)

// Tool is one runnable sanitizer configuration: either an EffectiveSan
// instrumentation variant or a runtime-interception baseline. Tools are
// stateless descriptors; every Exec builds a fresh environment, so runs
// are independent.
type Tool struct {
	Name string
	// MakeSan builds the baseline sanitizer; nil for EffectiveSan
	// variants and the uninstrumented baseline.
	MakeSan func() Sanitizer
	// Instrument is the instrumentation half of an EffectiveSan variant
	// (StaticEntry is filled in per run); Variant None is the
	// uninstrumented baseline. Baselines leave it zero.
	Instrument instrument.Options
	// Runtime is the EffectiveSan runtime half (Types is filled in per
	// run). Performance runs use Mode ModeCount, as in the paper
	// ("counting mode is used for measuring performance", §6).
	Runtime core.Options
}

// Counting returns a copy of the tool with the reporter in counting mode.
func (t *Tool) Counting() *Tool {
	cp := *t
	cp.Runtime.Mode = core.ModeCount
	return &cp
}

// InstrumentOptions returns the instrumentation options for running
// entry under the tool, shared by Exec and ExecSharded.
func (t *Tool) InstrumentOptions(entry string) instrument.Options {
	o := t.Instrument
	o.StaticEntry = entry
	return o
}

// RuntimeOptions returns the EffectiveSan runtime options for a program
// with type table types, shared by Exec and ExecSharded.
func (t *Tool) RuntimeOptions(types *ctypes.Table) core.Options {
	o := t.Runtime
	o.Types = types
	return o
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
	// (mir.Interp.RunSteps): deterministic, unlike Elapsed.
	Steps    uint64
	HeapPeak uint64 // peak live heap bytes
	MemPages int64  // simulated memory materialised (bytes)
}

// substrate is what one run executes on, built in one place for Exec
// and ExecSharded: the program to run (an instrumented copy for
// EffectiveSan variants) over either an EffectiveSan runtime or, for the
// uninstrumented baseline, a plain low-fat heap.
type substrate struct {
	prog       *mir.Program
	instrStats instrument.Stats
	rt         *core.Runtime     // nil for the uninstrumented baseline
	plain      *mir.PlainEnv     // nil for EffectiveSan variants
	heap       *lowfat.Allocator // the central heap under rt or plain
	reporter   *core.Reporter
}

// newSubstrate instruments prog for entry (EffectiveSan variants),
// builds the runtime or plain heap, and validates the program to run
// once, so interpreters over it skip validation.
func (t *Tool) newSubstrate(prog *mir.Program, entry string) (*substrate, error) {
	s := &substrate{prog: prog}
	if t.Instrument.Variant == instrument.None {
		s.plain = mir.NewPlainEnv(nil)
		s.heap, s.reporter = s.plain.Heap(), core.NewReporter(core.ModeLog, 0)
	} else {
		s.prog, s.instrStats = instrument.Instrument(prog, t.InstrumentOptions(entry))
		s.rt = core.NewRuntime(t.RuntimeOptions(prog.Types))
		s.heap, s.reporter = s.rt.Heap(), s.rt.Reporter
	}
	if err := s.prog.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// interp returns an interpreter over the substrate. With a nil route
// and sink it allocates from the central heap and counts into the
// runtime's own statistics (Exec); a sharded worker passes its magazine
// and its own counter sink (the sink is unused by the baseline).
func (s *substrate) interp(route lowfat.Heap, sink *core.Stats, out io.Writer) (*mir.Interp, error) {
	var env mir.Env
	if s.rt != nil {
		env = mir.NewEffEnv(s.rt.StatsView(sink).HeapView(route))
	} else {
		env = s.plain.View(route)
	}
	return mir.New(s.prog, mir.Options{Env: env, Out: out, NoValidate: true})
}

// heapStats returns the central heap's peak live bytes and the simulated
// memory materialised.
func (s *substrate) heapStats() (peak uint64, touched int64) {
	return s.heap.Stats().Peak, s.heap.Mem().TouchedBytes()
}

// Exec runs prog's entry function under the tool and returns the result.
// The program must be uninstrumented; EffectiveSan variants instrument a
// copy internally. When Runtime.AbortAfter stops the run, Exec returns
// the partial result together with the core.AbortError; on any other
// error the result is nil.
func (t *Tool) Exec(prog *mir.Program, entry string, out io.Writer) (*RunResult, error) {
	res := &RunResult{}
	var (
		in        *mir.Interp
		heapStats func() (uint64, int64)
		rt        *core.Runtime
		err       error
	)
	if t.MakeSan != nil {
		san := t.MakeSan()
		res.Reporter, heapStats = san.Reporter(), san.HeapStats
		in, err = mir.New(prog, mir.Options{Env: san, Hooks: san, Out: out})
	} else {
		var s *substrate
		if s, err = t.newSubstrate(prog, entry); err != nil {
			return nil, err
		}
		res.Reporter, res.InstrStats, heapStats, rt = s.reporter, s.instrStats, s.heapStats, s.rt
		in, err = s.interp(nil, nil, out)
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res.Value, res.Steps, err = in.RunSteps(entry)
	res.Elapsed = time.Since(start)
	if rt != nil {
		res.Stats = rt.Stats()
	}
	res.HeapPeak, res.MemPages = heapStats()
	if err != nil {
		if errors.As(err, new(core.AbortError)) {
			return res, err
		}
		return nil, err
	}
	return res, nil
}

// HeapStats reports a baseline's peak live heap bytes and the simulated
// memory it materialised.
func (b *base) HeapStats() (peak uint64, touched int64) {
	return b.heap.Stats().Peak, b.heap.Mem().TouchedBytes()
}

// EffectiveSan variants.
var (
	ToolUninstrumented = &Tool{Name: "Uninstrumented", Instrument: instrument.Options{Variant: instrument.None}}
	ToolEffectiveSan   = &Tool{Name: "EffectiveSan", Instrument: instrument.Options{Variant: instrument.Full}}
	ToolEffBounds      = &Tool{Name: "EffectiveSan-bounds", Instrument: instrument.Options{Variant: instrument.BoundsOnly}}
	ToolEffType        = &Tool{Name: "EffectiveSan-type", Instrument: instrument.Options{Variant: instrument.TypeOnly}}
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
