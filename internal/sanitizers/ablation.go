package sanitizers

import "fmt"

// Ablation is one row of the ablation table: a change to full
// EffectiveSan that switches one optimisation family off. The table is
// the one declaration every ablation has: the Fig. 8 bars and the
// difftest matrix cells both read it, so deleting an ablation means
// deleting its row.
type Ablation struct {
	// Short is the Fig. 8 column header and the difftest cell name.
	Short string
	// Name is the tool name: the Fig. 8 bar, keying BENCH_fig8.json.
	Name  string
	apply func(*Tool)
}

// ablations is the table, in Fig. 8 bar order.
var ablations = []Ablation{
	// The instrumentation check-elision optimisations off (§5.3).
	{Short: "no-opt", Name: "EffectiveSan-noopt",
		apply: func(t *Tool) { t.Instrument.NoOptimize = true }},
	// Every §5.3 check-cache level off: the per-site inline caches, the
	// shared memo cache and the exact-match fast path.
	{Short: "nocache", Name: "EffectiveSan-nocache",
		apply: func(t *Tool) { t.Runtime.NoCheckCache = true; t.Runtime.NoInlineCache = true }},
	// Only the per-site inline caches off, the shared memo cache on:
	// every check the inline level would have answered goes to the
	// shared table instead.
	{Short: "no-inline", Name: "EffectiveSan-noinline",
		apply: func(t *Tool) { t.Runtime.NoInlineCache = true }},
	// The check-motion suite off (hoisting, partial-redundancy insertion,
	// value-numbered provenance), check removal kept: prices what moving
	// checks buys over removing them.
	{Short: "no-motion", Name: "EffectiveSan-nomotion",
		apply: func(t *Tool) { t.Instrument.NoCheckMotion = true }},
	// The interprocedural static safety pass off: every check a
	// compile-time proof would have deleted stays, so this cell also
	// witnesses that the pass never changes detection.
	{Short: "no-static", Name: "EffectiveSan-nostatic",
		apply: func(t *Tool) { t.Instrument.NoStaticElision = true }},
}

// Ablations returns the ablation table in Fig. 8 bar order.
func Ablations() []Ablation {
	return append([]Ablation(nil), ablations...)
}

// On returns a copy of base, named a.Name, with the ablation applied.
func (a Ablation) On(base *Tool) *Tool {
	cp := *base
	cp.Name = a.Name
	a.apply(&cp)
	return &cp
}

// Ablated returns the ablation with short name short applied to base.
// It panics if the table has no such row.
func Ablated(short string, base *Tool) *Tool {
	for _, a := range ablations {
		if a.Short == short {
			return a.On(base)
		}
	}
	panic(fmt.Sprintf("sanitizers: no ablation %q", short))
}
