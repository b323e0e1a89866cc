package mir

import (
	"math/rand"
	"sort"
	"testing"
)

// testAnalysis returns an analysis over nSites mortal allocation sites
// and no program: enough for the state operators, which only read and
// write site flags.
func testAnalysis(nSites int) *analysis {
	a := &analysis{}
	for i := 0; i < nSites; i++ {
		a.sites = append(a.sites, &siteInfo{kind: siteMalloc, extent: 64})
	}
	return a
}

type siteFlags struct{ leaked, freed bool }

func flagsOf(a *analysis) []siteFlags {
	fs := make([]siteFlags, len(a.sites))
	for i, s := range a.sites {
		fs[i] = siteFlags{s.leaked, s.freed}
	}
	return fs
}

func randItv(r *rand.Rand) itv {
	switch r.Intn(5) {
	case 0:
		return topItv()
	case 1:
		return itv{int64(r.Intn(8)), posInf}
	case 2:
		return itv{negInf, int64(r.Intn(8))}
	}
	lo := int64(r.Intn(16) - 4)
	return itv{lo, lo + int64(r.Intn(24))}
}

func randSites(r *rand.Rand, nSites int) siteSet {
	ids := r.Perm(nSites)[:1+r.Intn(maxSites)]
	sort.Ints(ids)
	return sitesOf(ids...)
}

// randVal draws a value in the stepper's normal form.
func randVal(r *rand.Rand, nSites int) absVal {
	switch r.Intn(4) {
	case 0:
		return topVal()
	case 1:
		return numVal(randItv(r))
	}
	return absVal{num: topItv(), sites: randSites(r, nSites), off: randItv(r), mayNull: r.Intn(2) == 0}
}

func randBnd(r *rand.Rand) absBnd {
	switch r.Intn(3) {
	case 0:
		return topBnd()
	case 1:
		return wideBnd()
	}
	return absBnd{kind: bndRange, mayWide: r.Intn(2) == 0, lo: randItv(r), hi: randItv(r)}
}

type regFacts struct {
	vals []absVal
	bnds []absBnd
}

func snapshot(st *absState, n int) regFacts {
	f := regFacts{make([]absVal, n), make([]absBnd, n)}
	for i := 0; i < n; i++ {
		f.vals[i], f.bnds[i] = st.val(i), st.bnd(i)
	}
	return f
}

func (f regFacts) equal(g regFacts) bool {
	for i := range f.vals {
		if f.vals[i] != g.vals[i] || f.bnds[i] != g.bnds[i] {
			return false
		}
	}
	return true
}

// TestAbsStateCOWIsolation drives random clone/write sequences over a
// family of states against a dense model: a write to any state, clone or
// clone of a clone never shows through its source or its siblings.
func TestAbsStateCOWIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 3*chunkRegs + 5
	for trial := 0; trial < 50; trial++ {
		states := []*absState{newAbsState(n)}
		models := []regFacts{snapshot(states[0], n)}
		for op := 0; op < 200; op++ {
			i := r.Intn(len(states))
			if r.Intn(4) == 0 {
				states = append(states, states[i].clone())
				m := regFacts{append([]absVal(nil), models[i].vals...), append([]absBnd(nil), models[i].bnds...)}
				models = append(models, m)
			} else {
				reg := r.Intn(n)
				v, b := randVal(r, 6), randBnd(r)
				if r.Intn(2) == 0 {
					states[i].setVal(reg, v)
					models[i].vals[reg] = v
				} else {
					states[i].setBnd(reg, b)
					models[i].bnds[reg] = b
				}
			}
			for k, st := range states {
				if !snapshot(st, n).equal(models[k]) {
					t.Fatalf("trial %d op %d: state %d diverged from its model", trial, op, k)
				}
			}
		}
	}
}

// randStatePair returns two states of n registers derived from one
// common ancestor, so they share some chunks, hold equal registers in
// some unshared chunks, and differ elsewhere.
func randStatePair(r *rand.Rand, n, nSites int) (x, y *absState) {
	base := newAbsState(n)
	for i := 0; i < n; i++ {
		base.setVal(i, randVal(r, nSites))
		base.setBnd(i, randBnd(r))
	}
	x, y = base.clone(), base.clone()
	for k := r.Intn(n/2 + 1); k > 0; k-- {
		st := x
		if r.Intn(2) == 0 {
			st = y
		}
		reg := r.Intn(n)
		switch r.Intn(3) {
		case 0:
			st.setVal(reg, randVal(r, nSites))
		case 1:
			st.setBnd(reg, randBnd(r))
		default:
			// Unshare the chunk but keep the register equal.
			st.setVal(reg, st.val(reg))
		}
	}
	return x, y
}

// The register-by-register reference operators, exactly as defined
// before chunk sharing and the equality short-circuits.

func slowJoin(a *analysis, x, y *absState, n int) regFacts {
	f := regFacts{make([]absVal, n), make([]absBnd, n)}
	for i := 0; i < n; i++ {
		xv, yv := x.val(i), y.val(i)
		f.vals[i] = a.joinVal(xv, yv)
		if f.vals[i].tracked() != (xv.tracked() && yv.tracked()) && !f.vals[i].tracked() {
			f.bnds[i] = topBnd()
			continue
		}
		f.bnds[i] = joinBnd(x.bnd(i), y.bnd(i))
	}
	return f
}

func slowWiden(a *analysis, prev, next *absState, n int) regFacts {
	f := regFacts{make([]absVal, n), make([]absBnd, n)}
	for i := 0; i < n; i++ {
		f.vals[i] = a.widenVal(prev.val(i), next.val(i))
		f.bnds[i] = widenBnd(prev.bnd(i), next.bnd(i))
	}
	return f
}

func slowEq(x, y *absState, n int) bool {
	for i := 0; i < n; i++ {
		if x.val(i) != y.val(i) || !bndsEqual(x.bnd(i), y.bnd(i)) {
			return false
		}
	}
	return true
}

func equalFlags(a, b []siteFlags) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStateOpsMatchSlowPath checks joinState, widenState and statesEq
// against the register-by-register reference on random normal-form
// states: same result registers, same site flags, untouched operands.
func TestStateOpsMatchSlowPath(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const nSites = 7
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(4*chunkRegs)
		x, y := randStatePair(r, n, nSites)
		if r.Intn(8) == 0 {
			y = x.clone()
		}
		xs, ys := snapshot(x, n), snapshot(y, n)

		fast, slow := testAnalysis(nSites), testAnalysis(nSites)
		got, want := snapshot(fast.joinState(x, y), n), slowJoin(slow, x, y, n)
		if !got.equal(want) {
			t.Fatalf("trial %d: joinState differs from the slow path", trial)
		}
		if !equalFlags(flagsOf(fast), flagsOf(slow)) {
			t.Fatalf("trial %d: joinState site flags %v, slow path %v", trial, flagsOf(fast), flagsOf(slow))
		}

		fast, slow = testAnalysis(nSites), testAnalysis(nSites)
		got, want = snapshot(fast.widenState(x, y), n), slowWiden(slow, x, y, n)
		if !got.equal(want) {
			t.Fatalf("trial %d: widenState differs from the slow path", trial)
		}
		if !equalFlags(flagsOf(fast), flagsOf(slow)) {
			t.Fatalf("trial %d: widenState site flags %v, slow path %v", trial, flagsOf(fast), flagsOf(slow))
		}

		if statesEq(x, y) != slowEq(x, y, n) {
			t.Fatalf("trial %d: statesEq = %v, slow path %v", trial, statesEq(x, y), slowEq(x, y, n))
		}
		if !snapshot(x, n).equal(xs) || !snapshot(y, n).equal(ys) {
			t.Fatalf("trial %d: an operator mutated its operands", trial)
		}
	}
}

func sitesOf(ids ...int) siteSet {
	var s siteSet
	for _, id := range ids {
		s.ids[s.n] = int32(id)
		s.n++
	}
	return s
}

// TestJoinSiteUnion: unions up to maxSites stay tracked and sorted and
// leak nothing; five distinct sites overflow, leak all five, and give ⊤.
func TestJoinSiteUnion(t *testing.T) {
	ptr := func(s siteSet) absVal { return absVal{num: topItv(), sites: s} }

	a := testAnalysis(6)
	v := a.joinVal(ptr(sitesOf(1, 3)), ptr(sitesOf(0, 3, 5)))
	if v.sites != sitesOf(0, 1, 3, 5) {
		t.Fatalf("union = %+v, want sites 0 1 3 5", v.sites)
	}
	for id, f := range flagsOf(a) {
		if f.leaked {
			t.Errorf("site %d leaked by a union within maxSites", id)
		}
	}

	a = testAnalysis(6)
	v = a.joinVal(ptr(sitesOf(0, 2, 4)), ptr(sitesOf(1, 3)))
	if v != topVal() {
		t.Fatalf("overflowing union = %+v, want ⊤", v)
	}
	for id, f := range flagsOf(a) {
		if want := id < 5; f.leaked != want {
			t.Errorf("site %d leaked = %v, want %v", id, f.leaked, want)
		}
	}
}
