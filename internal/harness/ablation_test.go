package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/sanitizers"
)

// TestAblationTableFeedsFigures pins the one-table contract: every
// sanitizers.Ablations row is a Fig. 8 bar under its full name and short
// header and a difftest cell under its short name, both in table order
// and making the same option change.
func TestAblationTableFeedsFigures(t *testing.T) {
	bars, cells := fig8Configs(), difftest.Matrix()
	bi, ci := 0, 0
	for _, a := range sanitizers.Ablations() {
		for bi < len(bars) && bars[bi].tool.Name != a.Name {
			bi++
		}
		if bi == len(bars) {
			t.Fatalf("ablation %s: no Fig. 8 bar %q after the previous row's", a.Short, a.Name)
		}
		bar := bars[bi]
		if bar.short != a.Short {
			t.Errorf("Fig. 8 bar %s: header %q, want %q", a.Name, bar.short, a.Short)
		}
		for ci < len(cells) && cells[ci].Name != a.Short {
			ci++
		}
		if ci == len(cells) {
			t.Fatalf("ablation %s: no difftest cell after the previous row's", a.Short)
		}
		// The bar counts, the cell logs on the oracle's quarantine; the
		// ablation's own change must be the same on both.
		cell := *cells[ci].Tool
		cell.Runtime.Mode, cell.Runtime.Quarantine = core.ModeCount, 0
		if cell.Instrument != bar.tool.Instrument || cell.Runtime != bar.tool.Runtime {
			t.Errorf("ablation %s: difftest cell %+v/%+v, Fig. 8 bar %+v/%+v",
				a.Short, cell.Instrument, cell.Runtime, bar.tool.Instrument, bar.tool.Runtime)
		}
	}
}
