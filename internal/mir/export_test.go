package mir

import "fmt"

// Unfuse re-decodes in's program without fused op pairs, as a hooked
// interpreter runs it, so tests can compare the two executors.
func Unfuse(in *Interp) { in.funcs = decode(in.prog, false) }

// ReplaySiteChanges runs AnalyzeSafety's fixpoint and then its
// classification replay on p, and describes every allocation site whose
// immortal() or extent the replay changed. flagged counts the sites
// whose leaked/freed/retOwner flags the replay changed at all.
func ReplaySiteChanges(p *Program, roots []string) (changed []string, flagged int) {
	a := newAnalysis(p)
	a.solve(roots)
	before := make([]siteInfo, len(a.sites))
	for i, s := range a.sites {
		before[i] = *s
	}
	a.classify()
	if len(a.sites) != len(before) {
		changed = append(changed, fmt.Sprintf("replay interned %d new sites", len(a.sites)-len(before)))
	}
	for i := range before {
		b, s := &before[i], a.sites[i]
		if b.leaked != s.leaked || b.freed != s.freed || b.retOwner != s.retOwner {
			flagged++
		}
		if b.immortal() != s.immortal() || b.extent != s.extent {
			changed = append(changed, fmt.Sprintf("%s: immortal %v -> %v, extent %d -> %d",
				s.name, b.immortal(), s.immortal(), b.extent, s.extent))
		}
	}
	return changed, flagged
}
