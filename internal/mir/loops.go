package mir

import (
	"fmt"
	mathbits "math/bits"
)

// This file provides the natural-loop analysis the §5.3 check-MOTION
// passes (package instrument) run on: back edges found via the dominator
// tree already computed by CFG, loop bodies by reverse flooding from the
// latches, same-header loops merged, nesting depth, and preheader
// identification/insertion. It also provides the edge-splitting
// primitive the partial-redundancy pass inserts checks with.
//
// Irreducible control flow (a retreating edge whose target does not
// dominate its source — only reachable through goto-style CFGs, which
// the mini-C frontend cannot emit but hand-built IR can) has no natural
// loops to speak of: FindLoops flags it and the motion passes refuse
// the whole function, while the elision passes remain sound unchanged
// (they never assumed loop structure).

// Loop is one natural loop: the set of blocks that can reach a latch of
// the back edge without passing through the header, plus the header.
// Loops sharing a header are merged into one Loop with several latches.
type Loop struct {
	// Header is the loop entry block: the target of the back edge(s); it
	// dominates every block in the loop.
	Header int
	// Latches are the sources of the back edges into Header, in
	// discovery order.
	Latches []int
	// Body lists the member blocks in ascending order (Header included).
	Body []int
	// Parent indexes the smallest strictly containing loop in
	// LoopInfo.Loops, or -1 for an outermost loop.
	Parent int
	// Depth is the nesting depth: 1 for an outermost loop.
	Depth int
	// Preheader is the unique loop-outside predecessor of Header whose
	// only successor is Header, or -1 when no such block exists (use
	// AddPreheader to create one).
	Preheader int

	blocks bits
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b int) bool { return l.blocks.has(b) }

// bits is a simple fixed-size bitset over block indices.
type bits []uint64

func newBits(n int) bits      { return make(bits, (n+63)/64) }
func (b bits) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bits) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bits) clear(i int)    { b[i/64] &^= 1 << (i % 64) }

// next returns the lowest set bit at or above i, or -1 when there is none.
func (b bits) next(i int) int {
	wi := i / 64
	if wi >= len(b) {
		return -1
	}
	w := b[wi] >> (i % 64) << (i % 64)
	for w == 0 {
		wi++
		if wi == len(b) {
			return -1
		}
		w = b[wi]
	}
	return wi*64 + mathbits.TrailingZeros64(w)
}

// forEach calls fn for every set bit in ascending order — cheaper than
// probing every block index when the set is sparse.
func (b bits) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi*64 + mathbits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// LoopInfo is the result of FindLoops over one CFG.
type LoopInfo struct {
	// Loops holds every natural loop sorted by ascending body size; an
	// inner loop's body is a strict subset of its ancestors', so each
	// loop appears before every loop containing it.
	Loops []*Loop
	// Irreducible reports a retreating edge whose target does not
	// dominate its source: the function has a loop-like region that is
	// not a natural loop, and check motion must refuse it.
	Irreducible bool
}

// InnermostFirst returns the loops ordered innermost first (deepest
// nesting depth first, ties by smaller body), the order the hoisting
// pass processes them in so inner-loop code can migrate outward one
// level at a time.
func (li *LoopInfo) InnermostFirst() []*Loop {
	// Loops is already sorted by ascending body size, which places every
	// loop before its ancestors (strict-subset bodies); unrelated loops
	// may appear in any order, which hoisting does not care about.
	return append([]*Loop(nil), li.Loops...)
}

// FindLoops discovers the natural loops of c's function. The CFG must be
// current (rebuild it after any terminator edit before calling).
func FindLoops(c *CFG) *LoopInfo {
	li := &LoopInfo{}
	n := len(c.f.Blocks)
	byHeader := map[int]*Loop{}
	var headers []int
	for _, s := range c.RPO {
		for _, t := range c.Succs[s] {
			if c.rpoPos[t] == -1 || c.rpoPos[t] > c.rpoPos[s] {
				continue // forward edge (or target unreachable)
			}
			// Retreating edge s->t: a back edge iff t dominates s.
			if !c.Dominates(t, s) {
				li.Irreducible = true
				continue
			}
			l := byHeader[t]
			if l == nil {
				l = &Loop{Header: t, Parent: -1, Preheader: -1, blocks: newBits(n)}
				l.blocks.set(t)
				byHeader[t] = l
				headers = append(headers, t)
			}
			l.Latches = append(l.Latches, s)
			// Reverse flood from the latch, stopping at the header: every
			// block that reaches the latch without passing the header.
			stack := []int{s}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.blocks.has(b) || c.rpoPos[b] == -1 {
					continue // already flooded, or unreachable from entry
				}
				l.blocks.set(b)
				stack = append(stack, c.Preds[b]...)
			}
		}
	}
	for _, h := range headers {
		l := byHeader[h]
		l.blocks.forEach(func(b int) { l.Body = append(l.Body, b) })
		li.Loops = append(li.Loops, l)
	}
	// Ascending body size puts outer loops after the loops they contain
	// only when sizes differ; distinct same-size loops are disjoint, so
	// the order is a valid containment order either way.
	sortLoops(li.Loops)
	// Parent = smallest strictly containing loop. With the size order,
	// the first later loop containing the header contains the whole loop.
	for i, l := range li.Loops {
		for j := i + 1; j < len(li.Loops); j++ {
			if li.Loops[j].blocks.has(l.Header) {
				l.Parent = j
				break
			}
		}
	}
	for _, l := range li.Loops {
		d := 1
		for p := l.Parent; p != -1; p = li.Loops[p].Parent {
			d++
		}
		l.Depth = d
	}
	// Preheader: the unique outside predecessor of the header, provided
	// the header is its only successor (so inserted code runs exactly
	// when the loop is entered).
	for _, l := range li.Loops {
		ph := -1
		for _, p := range c.Preds[l.Header] {
			if l.blocks.has(p) {
				continue
			}
			if ph != -1 {
				ph = -2 // several outside predecessors
				break
			}
			ph = p
		}
		if ph >= 0 && len(c.Succs[ph]) == 1 {
			l.Preheader = ph
		}
	}
	return li
}

func sortLoops(ls []*Loop) {
	// Insertion sort by body size (loop counts are tiny).
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && len(ls[j-1].Body) > len(ls[j].Body); j-- {
			ls[j-1], ls[j] = ls[j], ls[j-1]
		}
	}
}

// AddPreheader inserts a fresh preheader block for the loop headed at
// header: a new block holding only a jump to the header, with every
// loop-outside predecessor's terminator retargeted to it. Returns the
// new block's index, or -1 when the header is the entry block (whose
// implicit function-entry edge cannot be retargeted). The caller's CFG
// and LoopInfo are stale afterwards and must be rebuilt.
func AddPreheader(f *Func, c *CFG, l *Loop) int {
	if l.Header == 0 {
		return -1
	}
	np := len(f.Blocks)
	f.Blocks = append(f.Blocks, &Block{
		Name:   f.Blocks[l.Header].Name + ".pre",
		Instrs: []Instr{{Op: OpJmp, Dst: -1, A: -1, B: -1, C: -1, To: l.Header, Site: f.Name + ":preheader"}},
	})
	for _, p := range c.Preds[l.Header] {
		if l.blocks.has(p) {
			continue // back edge: stays on the header
		}
		retarget(&f.Blocks[p].Instrs[len(f.Blocks[p].Instrs)-1], l.Header, np)
	}
	return np
}

// SplitEdge splits the CFG edge from -> to: a fresh block holding only a
// jump to `to` is appended and from's terminator is retargeted to it.
// Returns the new block's index. The caller's CFG is stale afterwards.
// Panics if no such edge exists.
func SplitEdge(f *Func, from, to int) int {
	fb := f.Blocks[from]
	term := &fb.Instrs[len(fb.Instrs)-1]
	if !hasTarget(term, to) {
		panic(fmt.Sprintf("mir: SplitEdge: no edge %s -> %s in %s",
			fb.Name, f.Blocks[to].Name, f.Name))
	}
	ns := len(f.Blocks)
	f.Blocks = append(f.Blocks, &Block{
		Name:   fb.Name + ".." + f.Blocks[to].Name,
		Instrs: []Instr{{Op: OpJmp, Dst: -1, A: -1, B: -1, C: -1, To: to, Site: f.Name + ":split"}},
	})
	retarget(term, to, ns)
	return ns
}

func hasTarget(term *Instr, to int) bool {
	switch term.Op {
	case OpJmp:
		return term.To == to
	case OpBr:
		return term.To == to || term.Else == to
	}
	return false
}

// retarget rewrites every occurrence of target `from` in the terminator
// to `to` (both arms of a degenerate OpBr included — they form a single
// CFG edge).
func retarget(term *Instr, from, to int) {
	switch term.Op {
	case OpJmp:
		if term.To == from {
			term.To = to
		}
	case OpBr:
		if term.To == from {
			term.To = to
		}
		if term.Else == from {
			term.Else = to
		}
	}
}
