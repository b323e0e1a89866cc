package instrument

// Static safety elision: the bridge between mir.AnalyzeSafety's
// interprocedural abstract interpretation and the instrumented program.
// It runs as its own pass between check INSERTION and the dynamic
// elision pass, so that pass sees fewer sites, and is the only pass
// that removes a check by static reasoning alone (every dynamic
// elision needs another check to cover the removed one).
//
// Contract per verdict:
//
//   - STATIC-SAFE bounds/escape checks are deleted outright: the
//     interpreter's OpBoundsCheck/OpEscapeCheck read registers and
//     report — they never write — so removing a never-reporting one is
//     observationally invisible (the difftest matrix's no-static config
//     holds the pass to exactly that).
//   - STATIC-SAFE type checks are deleted only when no surviving
//     consumer reads the bounds fact they produce: OpTypeCheck WRITES
//     the shadow bounds register, and a kept bounds check (or an
//     intrinsic call introspecting its arguments) downstream must keep
//     seeing the narrowed fact, not the stale register.
//   - Residual producers (OpBoundsGet/OpBoundsNarrow) that
//     existed only to feed now-deleted checks are swept too — counted
//     separately (ElidedStaticResidual) so the headline counter stays
//     "checks deleted".
//   - STATIC-UNSAFE checks are kept untouched (detection must be
//     byte-identical) and surfaced as compile-time diagnostics
//     (Stats.StaticDiags, `effsan -warn-static`).
//
// Counters partition from the elision ones: a statically deleted check
// is charged to ElidedStaticSafe ONLY — it is gone before the dynamic
// elision pass runs, so it can never also be counted by it.

import (
	"sort"

	"repro/internal/intrinsics"
	"repro/internal/mir"
)

// StaticDiag is one compile-time diagnostic for a STATIC-UNSAFE check
// site: a check the abstract interpretation proves reports an error on
// every execution that reaches it.
type StaticDiag struct {
	Func string // containing function
	Site string // source location (file:line from the frontend)
	Kind string // "type", "bounds", or "escape"
	// SiteID is the runtime check-site ID (type checks only; 0 when the
	// check carries no ID or was removed by a later dynamic pass).
	SiteID int64
	Reason string // the analysis' justification, human-readable
}

// staticElisionEnabled reports whether the static safety pass runs for
// the given options: it needs the full bounds-register discipline
// (Full/BoundsOnly), and is off under NoOptimize like every other
// optimisation.
func staticElisionEnabled(opts Options) bool {
	return !opts.NoOptimize && !opts.NoStaticElision &&
		(opts.Variant == Full || opts.Variant == BoundsOnly)
}

// staticElide classifies every check site in p (already instrumented,
// not yet optimised) and applies the deletion discipline above.
func staticElide(p *mir.Program, opts Options, st *Stats) {
	var roots []string
	if opts.StaticEntry != "" {
		roots = []string{opts.StaticEntry}
	}
	res := mir.AnalyzeSafety(p, roots)
	if len(res.Verdicts) == 0 {
		return
	}
	names := make([]string, 0, len(res.Verdicts))
	for name := range res.Verdicts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		staticElideFunc(p, p.Funcs[name], res.Verdicts[name], st)
	}
}

func staticElideFunc(p *mir.Program, f *mir.Func, verdicts []mir.CheckVerdict, st *Stats) {
	if f == nil {
		return
	}
	vmap := make(map[[2]int]*mir.CheckVerdict, len(verdicts))
	for i := range verdicts {
		v := &verdicts[i]
		vmap[[2]int{v.Block, v.Index}] = v
	}

	// Decide deletions in two rounds so the bounds-register liveness the
	// second round needs reflects the first round's removals.
	type key = [2]int
	del := map[key]bool{}

	// Round 1: SAFE bounds/escape checks (pure readers) go
	// unconditionally.
	for k, v := range vmap {
		if v.Verdict != mir.VerdictSafe {
			continue
		}
		switch f.Blocks[k[0]].Instrs[k[1]].Op {
		case mir.OpBoundsCheck, mir.OpEscapeCheck:
			del[k] = true
		}
	}

	neededBefore := neededBoundsRegs(p, f, nil)
	neededAfter := neededBoundsRegs(p, f, del)

	// Round 2: SAFE type checks whose produced fact no surviving
	// consumer needs.
	for k, v := range vmap {
		if v.Verdict != mir.VerdictSafe || del[k] {
			continue
		}
		ins := &f.Blocks[k[0]].Instrs[k[1]]
		if ins.Op == mir.OpTypeCheck && !neededAfter[ins.A] {
			del[k] = true
		}
	}

	// Diagnostics for the UNSAFE sites (always kept).
	for _, v := range verdicts {
		if v.Verdict != mir.VerdictUnsafe {
			continue
		}
		ins := &f.Blocks[v.Block].Instrs[v.Index]
		kind := "type"
		switch ins.Op {
		case mir.OpBoundsCheck:
			kind = "bounds"
		case mir.OpEscapeCheck:
			kind = "escape"
		}
		st.StaticUnsafeSites++
		st.StaticDiags = append(st.StaticDiags, StaticDiag{
			Func: f.Name, Site: ins.Site, Kind: kind, Reason: v.Reason,
		})
	}

	// Apply: drop deleted checks, plus residual bounds-register
	// producers that only existed to feed them (needed before the
	// deletions, unneeded after).
	for bi, b := range f.Blocks {
		out := b.Instrs[:0]
		for ii := range b.Instrs {
			ins := &b.Instrs[ii]
			if del[key{bi, ii}] {
				st.ElidedStaticSafe++
				continue
			}
			switch ins.Op {
			case mir.OpBoundsGet, mir.OpBoundsNarrow:
				if neededBefore[ins.A] && !neededAfter[ins.A] {
					st.ElidedStaticResidual++
					continue
				}
			}
			out = append(out, *ins)
		}
		b.Instrs = out
	}
}

// neededBoundsRegs computes, flow-insensitively, the set of registers
// whose shadow bounds register some surviving consumer may read.
// Consumers seed the set: bounds/escape checks not in skip read
// bounds[A]; checked intrinsic calls read the bounds register of every
// pointer argument. The set then closes backwards over the
// interpreter's bounds-propagation edges — OpMov, every OpCast,
// OpField and OpIndex copy bounds[A] into bounds[Dst] — so a producer
// for any register the fact could have flowed from is retained.
func neededBoundsRegs(p *mir.Program, f *mir.Func, skip map[[2]int]bool) map[int]bool {
	needed := map[int]bool{}
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			ins := &b.Instrs[ii]
			switch ins.Op {
			case mir.OpBoundsCheck, mir.OpEscapeCheck:
				if !skip[[2]int{bi, ii}] {
					needed[ins.A] = true
				}
			case mir.OpCall:
				if p.Funcs[ins.Callee] != nil {
					continue // program callees start with fresh Wide registers
				}
				if d := intrinsics.Lookup(ins.Callee); d != nil {
					for i, arg := range ins.Args {
						if i < len(d.PtrArgs) && d.PtrArgs[i] {
							needed[arg] = true
						}
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				ins := &b.Instrs[ii]
				switch ins.Op {
				case mir.OpMov, mir.OpCast, mir.OpField, mir.OpIndex:
					if needed[ins.Dst] && !needed[ins.A] {
						needed[ins.A] = true
						changed = true
					}
				}
			}
		}
	}
	return needed
}

// fillStaticDiagSiteIDs resolves the runtime site IDs of the UNSAFE
// type-check diagnostics after assignSiteIDs has numbered the surviving
// checks (matching by function and source site; a diagnosed check that a
// later dynamic pass removed keeps SiteID 0).
func fillStaticDiagSiteIDs(p *mir.Program, st *Stats) {
	if len(st.StaticDiags) == 0 {
		return
	}
	ids := map[[2]string]int64{}
	for name, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				if ins.Op == mir.OpTypeCheck && ins.Aux > 0 {
					k := [2]string{name, ins.Site}
					if _, ok := ids[k]; !ok {
						ids[k] = ins.Aux
					}
				}
			}
		}
	}
	for i := range st.StaticDiags {
		d := &st.StaticDiags[i]
		if d.Kind == "type" {
			d.SiteID = ids[[2]string{d.Func, d.Site}]
		}
	}
}
