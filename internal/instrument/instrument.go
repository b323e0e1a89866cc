// Package instrument implements EffectiveSan's dynamic type check
// instrumentation schema (Duck & Yap, PLDI 2018, §4, Fig. 3) as a
// MIR-to-MIR transformation, plus the reduced-instrumentation variants
// evaluated in §6.2 and the prototype's check-elision optimisations.
//
// The schema:
//
//   - input pointers — function parameters (a), call returns (b), pointer
//     loads (c) and pointer casts (d) — are type checked against their
//     static pointee type, yielding (sub-)object bounds;
//   - derived pointers — field selection (e) and pointer arithmetic (f) —
//     propagate bounds, with field selection narrowing them;
//   - pointer uses and escapes (g) — loads, stores, pointer stores and
//     pointer call arguments — are bounds checked.
//
// Instrumentation is limited to used pointers (a pointer is used if it is
// dereferenced or escapes, directly or through a derived pointer); "it is
// the responsibility of the eventual user of the pointer to check the
// type". Allocations get their (trivially correct) allocation bounds via
// bounds_get rather than a type check.
//
// After insertion, the static safety pass (staticsafe.go, backed by the
// interprocedural abstract interpretation in mir/absint.go) deletes
// checks proven to never fail on ANY execution and flags checks proven
// to always fail as compile-time diagnostics (Stats.StaticDiags, the
// `effsan -warn-static` surface; the knob is Options.NoStaticElision).
// Then the §5.3 elision pass (elide.go) removes dynamically redundant
// checks with full CFG visibility: an available-check dataflow over
// mir.CFG elides any check whose fact is available on every incoming
// path, with free/realloc/call acting as barriers. Surviving type
// checks then receive stable site IDs for the runtime's per-site
// inline caches.
package instrument

import (
	"repro/internal/ctypes"
	"repro/internal/intrinsics"
	"repro/internal/mir"
)

// Variant selects the instrumentation level (§6.2).
type Variant int

const (
	// None performs no instrumentation (the uninstrumented baseline).
	None Variant = iota
	// Full is complete EffectiveSan instrumentation: type checks on
	// input pointers, bounds narrowing, bounds checks on all uses.
	Full
	// BoundsOnly protects object bounds only: type checks are replaced
	// by the cheaper bounds_get, and no sub-object narrowing happens —
	// comparable to allocation-bounds sanitizers (LowFat, ASan).
	BoundsOnly
	// TypeOnly checks C/C++-style pointer casts only (rule (d), applied
	// regardless of use) — comparable to type-confusion sanitizers
	// (CaVer, TypeSan, HexType).
	TypeOnly
)

func (v Variant) String() string {
	switch v {
	case None:
		return "uninstrumented"
	case Full:
		return "effectivesan"
	case BoundsOnly:
		return "effectivesan-bounds"
	case TypeOnly:
		return "effectivesan-type"
	}
	return "variant?"
}

// Options configure the pass.
type Options struct {
	Variant Variant
	// NoOptimize disables the check-elision optimisations (never-failing
	// upcast checks, subsumed bounds checks, redundant narrowing, and
	// type-check reuse) — the Fig. 8 "no-opt" ablation configuration.
	NoOptimize bool
	// NoStaticElision disables the interprocedural static safety pass
	// (staticsafe.go): no check is deleted by abstract interpretation
	// alone and no STATIC-UNSAFE diagnostics are produced — the
	// "no-static" Fig. 8 ablation. The pass is also implicitly off under
	// NoOptimize and outside the Full/BoundsOnly variants.
	NoStaticElision bool
	// StaticEntry names the program's entry function for the static
	// safety analysis' call graph. Empty analyses every function under
	// unknown arguments (sound, but blind to parameter provenance).
	StaticEntry string
}

// Stats reports what the pass did.
type Stats struct {
	TypeChecks     int // OpTypeCheck inserted
	BoundsGets     int // OpBoundsGet inserted
	Narrows        int // OpBoundsNarrow inserted
	BoundsChecks   int // OpBoundsCheck inserted
	EscapeChecks   int // OpEscapeCheck inserted
	ElidedUpcasts  int // casts proven safe statically
	ElidedSubsume  int // bounds checks subsumed by earlier ones
	ElidedNarrows  int // redundant narrowing operations removed
	ElidedUnused   int // input checks skipped on never-used pointers
	ElidedRechecks int // type checks reusing an earlier check's bounds
	// ElidedPathSensitive counts the subset of the elisions above whose
	// justifying fact was established in ANOTHER block and is available
	// on every incoming path — the wins only a CFG-aware pass can see.
	ElidedPathSensitive int
	// HoistedChecks is always zero: no pass moves checks. It remains
	// only because the repository benchmark (bench/run.go) reads it for
	// its instrument.hoisted metric, and goes when the benchmark stops
	// naming it (ROADMAP item 11).
	HoistedChecks int
	// CheckSites is the number of static OpTypeCheck sites that survived
	// elision; each gets a stable 1-based site ID for the runtime's
	// per-site inline caches.
	CheckSites int
	// IntrinsicSites is the number of check-site IDs reserved for libc
	// intrinsic calls (one per pointer argument per checked call, drawn
	// from the same counter as CheckSites so every site keeps its own
	// inline-cache slot). Zero under TypeOnly and None.
	IntrinsicSites int
	// The static safety pass counters (staticsafe.go; all zero under
	// NoStaticElision/NoOptimize). They partition from every counter
	// above: a STATIC-SAFE check is deleted BEFORE the dynamic
	// elision pass runs, so it can never also be charged to
	// ElidedRechecks/ElidedPathSensitive, and the residual
	// bounds-register producers swept in its wake are counted
	// separately so ElidedStaticSafe stays "checks deleted".
	ElidedStaticSafe     int // checks proven unable to fail, deleted
	ElidedStaticResidual int // orphaned bounds_get/narrow/mov swept after deletion
	StaticUnsafeSites    int // checks proven to fail whenever reached (kept)
	// StaticDiags carries one compile-time diagnostic per STATIC-UNSAFE
	// site, in deterministic (function, block, instruction) order.
	StaticDiags []StaticDiag
}

// Instrument returns an instrumented deep copy of p; the input program is
// not modified. The returned program must run with an EffectiveSan
// runtime (mir.EffEnv) unless Variant is None.
func Instrument(p *mir.Program, opts Options) (*mir.Program, Stats) {
	out := p.Clone()
	var st Stats
	if opts.Variant == None {
		return out, st
	}
	for _, f := range out.Funcs {
		instrumentFunc(out, f, opts, &st)
	}
	// The static safety pass sits between insertion and the dynamic
	// optimisers: it deletes checks by interprocedural proof alone, so
	// the elision pass below sees fewer sites.
	if staticElisionEnabled(opts) {
		staticElide(out, opts, &st)
	}
	if !opts.NoOptimize {
		for _, f := range out.Funcs {
			elidePathSensitive(f, &st)
		}
	}
	assignSiteIDs(out, opts, &st)
	fillStaticDiagSiteIDs(out, &st)
	// Name the inserted instructions' diagnostic sites here rather than
	// in the first mir.New's Validate, so decoding and running the
	// returned program never write to it.
	for _, f := range out.Funcs {
		f.Finalize()
	}
	return out, st
}

// instrumentFunc rewrites one function in place.
func instrumentFunc(p *mir.Program, f *mir.Func, opts Options, st *Stats) {
	used := usedPointers(p, f, opts)
	for bi, b := range f.Blocks {
		// Most instructions gain at most one check.
		out := make([]mir.Instr, 0, 2*len(b.Instrs))
		for _, ins := range b.Instrs {
			emitPre(p, f, &ins, opts, st, &out)
			out = append(out, ins)
			emitPost(p, f, &ins, opts, st, used, &out)
		}
		b.Instrs = out
		_ = bi
	}
	// Rule (a): type check used pointer parameters at function entry.
	if opts.Variant == Full || opts.Variant == BoundsOnly {
		var entry []mir.Instr
		for i, prm := range f.Params {
			if prm.Type == nil || prm.Type.Kind != ctypes.KindPointer {
				continue
			}
			if !used[i] {
				st.ElidedUnused++
				continue
			}
			entry = append(entry, inputCheck(opts, st, i, prm.Type.Elem))
		}
		if len(entry) > 0 {
			f.Blocks[0].Instrs = append(entry, f.Blocks[0].Instrs...)
		}
	}
}

// inputCheck builds the check instruction for an input pointer: a type
// check in Full, a bounds_get in BoundsOnly.
func inputCheck(opts Options, st *Stats, reg int, pointee *ctypes.Type) mir.Instr {
	if opts.Variant == BoundsOnly {
		st.BoundsGets++
		return mir.Instr{Op: mir.OpBoundsGet, Dst: -1, A: reg, B: -1, C: -1}
	}
	st.TypeChecks++
	return mir.Instr{Op: mir.OpTypeCheck, Dst: -1, A: reg, B: -1, C: -1, Type: pointee}
}

// emitPre inserts the checks that must precede ins: bounds checks on
// memory accesses and escape checks on escaping pointers (rule (g)).
func emitPre(p *mir.Program, f *mir.Func, ins *mir.Instr, opts Options, st *Stats, out *[]mir.Instr) {
	if opts.Variant != Full && opts.Variant != BoundsOnly {
		return
	}
	boundsCheck := func(addrReg int, sizeReg int, size int64, static *ctypes.Type) {
		st.BoundsChecks++
		*out = append(*out, mir.Instr{Op: mir.OpBoundsCheck, Dst: -1,
			A: addrReg, B: sizeReg, C: -1, Aux: size, Type: static, Site: ins.Site})
	}
	escapeCheck := func(reg int) {
		st.EscapeChecks++
		*out = append(*out, mir.Instr{Op: mir.OpEscapeCheck, Dst: -1,
			A: reg, B: -1, C: -1, Site: ins.Site})
	}
	switch ins.Op {
	case mir.OpLoad:
		boundsCheck(ins.A, -1, ins.Type.Size(), ins.Type)
	case mir.OpStore:
		boundsCheck(ins.A, -1, ins.Type.Size(), ins.Type)
		if ins.Type.Kind == ctypes.KindPointer {
			escapeCheck(ins.B)
		}
	case mir.OpMemcpy:
		boundsCheck(ins.A, ins.C, 0, ctypes.Char)
		boundsCheck(ins.B, ins.C, 0, ctypes.Char)
	case mir.OpMemset:
		boundsCheck(ins.A, ins.C, 0, ctypes.Char)
	case mir.OpCall:
		callee := p.Funcs[ins.Callee]
		if callee == nil {
			// Intrinsic call: the intrinsic introspects its own pointer
			// arguments against their bounds registers (escape checks
			// would be redundant with its per-argument range checks).
			return
		}
		for i, arg := range ins.Args {
			if callee.Params[i].Type != nil && callee.Params[i].Type.Kind == ctypes.KindPointer {
				escapeCheck(arg)
			}
		}
	}
}

// emitPost inserts the checks that follow ins: type checks on input
// pointers (rules (b)-(d)), allocation bounds on fresh objects, and
// narrowing on field selection (rule (e)).
func emitPost(p *mir.Program, f *mir.Func, ins *mir.Instr, opts Options, st *Stats,
	used map[int]bool, out *[]mir.Instr) {

	if opts.Variant == TypeOnly {
		// Rule (d) only, applied regardless of use (§6.2).
		if ins.Op == mir.OpCast && ins.Type.Kind == ctypes.KindPointer &&
			ins.CastFrom != nil && ins.CastFrom.Kind == ctypes.KindPointer {
			if !opts.NoOptimize && safeUpcast(ins.CastFrom.Elem, ins.Type.Elem) {
				st.ElidedUpcasts++
				return
			}
			st.TypeChecks++
			*out = append(*out, mir.Instr{Op: mir.OpTypeCheck, Dst: -1,
				A: ins.Dst, B: -1, C: -1, Type: ins.Type.Elem, Site: ins.Site})
		}
		return
	}
	if opts.Variant != Full && opts.Variant != BoundsOnly {
		return
	}

	switch ins.Op {
	case mir.OpMalloc, mir.OpAlloca, mir.OpRealloc, mir.OpGlobal:
		// Fresh (or global) object pointers: allocation bounds are exact
		// and a type check can never fail, so bounds_get suffices in
		// every variant.
		if !used[ins.Dst] {
			st.ElidedUnused++
			return
		}
		st.BoundsGets++
		*out = append(*out, mir.Instr{Op: mir.OpBoundsGet, Dst: -1,
			A: ins.Dst, B: -1, C: -1, Site: ins.Site})

	case mir.OpLoad, mir.OpCall, mir.OpCast:
		pointee := pointerResultElem(p, ins)
		if pointee == nil {
			return
		}
		if !used[ins.Dst] {
			st.ElidedUnused++
			return
		}
		if ins.Op == mir.OpCast {
			if ins.CastFrom == nil || ins.CastFrom.Kind != ctypes.KindPointer {
				// Integer-to-pointer casts are inputs too (§4).
			} else if !opts.NoOptimize && safeUpcast(ins.CastFrom.Elem, pointee) {
				st.ElidedUpcasts++
				return
			}
		}
		*out = append(*out, inputCheck(opts, st, ins.Dst, pointee))
		(*out)[len(*out)-1].Site = ins.Site

	case mir.OpField:
		// Rule (e): narrow to the selected field (Full only — BoundsOnly
		// protects whole-object bounds).
		if opts.Variant != Full || !ins.Type.IsComplete() {
			return
		}
		if !used[ins.Dst] {
			st.ElidedUnused++
			return
		}
		st.Narrows++
		*out = append(*out, mir.Instr{Op: mir.OpBoundsNarrow, Dst: -1,
			A: ins.Dst, B: -1, C: -1, Aux: ins.Type.Size(), Site: ins.Site})
	}
}

// pointerResultElem returns the static pointee type of the pointer an
// instruction produces, or nil.
func pointerResultElem(p *mir.Program, ins *mir.Instr) *ctypes.Type {
	switch ins.Op {
	case mir.OpLoad, mir.OpCast:
		if ins.Type.Kind == ctypes.KindPointer {
			return ins.Type.Elem
		}
	case mir.OpCall:
		if callee, ok := p.Funcs[ins.Callee]; ok && callee.Ret != nil &&
			callee.Ret.Kind == ctypes.KindPointer {
			return callee.Ret.Elem
		}
	}
	return nil
}

// safeUpcast reports whether a cast from pointee `from` to pointee `to`
// can never fail a dynamic type check: identical types, casts to the
// first/base sub-object (C++ upcasts), and casts to char/void views.
// These checks are removed by the prototype's optimiser (§6).
func safeUpcast(from, to *ctypes.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if from == to {
		return true
	}
	switch to {
	case ctypes.Char, ctypes.UChar, ctypes.SChar, ctypes.Void:
		// Char/void views reset to allocation bounds; but the bounds are
		// still needed downstream, so only elide when the source type
		// already has them — conservatively keep the check.
		return false
	}
	return from.IsRecord() && from.HasBase(to)
}

// usedPointers computes the set of registers that are used as pointers —
// dereferenced, escaping, or flowing into a derived pointer that is —
// via a fixpoint over the (non-SSA) register graph. Registers outside the
// set need no input type check ("EffectiveSan will limit instrumentation
// to used pointers only").
func usedPointers(p *mir.Program, f *mir.Func, opts Options) map[int]bool {
	used := make(map[int]bool)
	mark := func(r int) bool {
		if r < 0 || used[r] {
			return false
		}
		used[r] = true
		return true
	}
	// Seed: direct dereferences and escapes.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			switch ins.Op {
			case mir.OpLoad:
				mark(ins.A)
			case mir.OpStore:
				mark(ins.A)
				if ins.Type.Kind == ctypes.KindPointer {
					mark(ins.B)
				}
			case mir.OpMemcpy:
				mark(ins.A)
				mark(ins.B)
			case mir.OpMemset:
				mark(ins.A)
			case mir.OpFree, mir.OpRealloc:
				mark(ins.A)
			case mir.OpCall:
				callee := p.Funcs[ins.Callee]
				if callee == nil {
					// Intrinsic call: its pointer arguments are used (the
					// intrinsic dereferences them), so their provenance —
					// including sub-object narrowing — must be established
					// for the intrinsic's bounds registers to be meaningful.
					if d := intrinsics.Lookup(ins.Callee); d != nil {
						for i, arg := range ins.Args {
							if i < len(d.PtrArgs) && d.PtrArgs[i] {
								mark(arg)
							}
						}
					}
					continue
				}
				for i, arg := range ins.Args {
					if callee.Params[i].Type != nil && callee.Params[i].Type.Kind == ctypes.KindPointer {
						mark(arg)
					}
				}
			}
		}
	}
	// Propagate backwards through derivations until fixpoint. Casts are
	// normally NOT propagated through: a cast is an input that performs
	// its own check (rule (d)) — this is what lets "a function that
	// merely casts and returns a pointer" escape instrumentation
	// entirely. The exception is casts the optimiser will ELIDE as
	// never-failing (upcasts, identity casts): an elided cast performs no
	// check, so its result inherits the source's bounds — which means the
	// source must itself be treated as used, or those bounds would never
	// be established.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				switch ins.Op {
				case mir.OpMov, mir.OpField, mir.OpIndex:
					if used[ins.Dst] && mark(ins.A) {
						changed = true
					}
				case mir.OpCast:
					if !opts.NoOptimize &&
						ins.Type.Kind == ctypes.KindPointer &&
						ins.CastFrom != nil && ins.CastFrom.Kind == ctypes.KindPointer &&
						safeUpcast(ins.CastFrom.Elem, ins.Type.Elem) {
						if used[ins.Dst] && mark(ins.A) {
							changed = true
						}
					}
				}
			}
		}
	}
	return used
}
