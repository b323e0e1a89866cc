package mir

import "math"

// This file provides the control-flow analyses the §5.3 check-elision
// pass and the static safety analysis need: block successors and
// predecessors derived from the terminators (OpJmp/OpBr/OpRet), and the
// weak topological order SolveForward iterates in (Bourdoncle,
// "Efficient chaotic iteration strategies with widenings").
//
// The paper's optimiser runs on LLVM IR with full CFG visibility; the
// reproduction's instrument pass previously reused checks within one
// basic block only. CFG gives it the same whole-function view.

// CFG is the control-flow graph of one function. It is a snapshot: the
// function must not be mutated structurally (blocks added/removed,
// terminators changed) while the CFG is in use. Instruction-level edits
// inside blocks are fine — the graph only depends on terminators. A CFG
// is immutable once NewCFG returns, so concurrent readers may share it.
type CFG struct {
	f *Func

	// Succs and Preds are the per-block successor and predecessor lists
	// (block indices). A block ending in OpRet has no successors; an
	// OpBr with identical targets contributes one edge.
	Succs [][]int
	Preds [][]int

	wto    []int // blocks reachable from the entry, in weak topological order
	wtoPos []int // block -> wto position, -1 if unreachable
}

// blockSuccs returns the successor block indices of b per its terminator.
// A block that is empty or not properly terminated (possible only on IR
// that would fail Validate) is treated as having no successors.
func blockSuccs(b *Block) []int {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := &b.Instrs[len(b.Instrs)-1]
	switch t.Op {
	case OpJmp:
		return []int{t.To}
	case OpBr:
		if t.To == t.Else {
			return []int{t.To}
		}
		return []int{t.To, t.Else}
	}
	return nil
}

// NewCFG builds the control-flow graph and weak topological order of f.
func NewCFG(f *Func) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		f:     f,
		Succs: make([][]int, n),
		Preds: make([][]int, n),
	}
	for i, b := range f.Blocks {
		c.Succs[i] = blockSuccs(b)
	}
	for i, ss := range c.Succs {
		for _, s := range ss {
			c.Preds[s] = append(c.Preds[s], i)
		}
	}
	c.buildWTO()
	return c
}

// buildWTO computes a weak topological order of the blocks reachable
// from block 0 with Bourdoncle's recursive algorithm. The order is
// hierarchical: every component (a strongly connected region found by
// the DFS, with nested components inside it) occupies a contiguous run
// of positions, its head first, and every edge u->v either goes forward
// (u before v) or back to the head of a component containing u. A
// solver that always takes the pending block of lowest position
// therefore stabilises each loop before it visits the loop's exits.
//
// Bourdoncle prepends each finished element or component to its
// partition. buildWTO appends to one list instead — a component's
// members are appended contiguously, then its head — and reverses the
// list once at the end, which yields the same flattened order.
func (c *CFG) buildWTO() {
	n := len(c.f.Blocks)
	c.wtoPos = make([]int, n)
	for i := range c.wtoPos {
		c.wtoPos[i] = -1
	}
	if n == 0 {
		return
	}
	w := &wtoWalk{succs: c.Succs, dfn: make([]int, n), rev: make([]int, 0, n)}
	w.visit(0)
	c.wto = w.rev
	for i, j := 0, len(c.wto)-1; i < j; i, j = i+1, j-1 {
		c.wto[i], c.wto[j] = c.wto[j], c.wto[i]
	}
	for pos, b := range c.wto {
		c.wtoPos[b] = pos
	}
}

// wtoWalk is the state of Bourdoncle's algorithm: dfn is the DFS
// number of a block (0 = not yet visited, wtoDone = placed in the
// order), stack the blocks visited but not yet placed, rev the
// flattened order in reverse.
type wtoWalk struct {
	succs [][]int
	dfn   []int
	num   int
	stack []int
	rev   []int
}

const wtoDone = math.MaxInt

// visit numbers v, explores its successors and returns the smallest DFS
// number reachable from v through blocks still on the stack. When that
// is v's own number, v heads a component: the blocks above it on the
// stack are reset and re-explored from v's successors, which places
// the component's members (nested components included), then v.
func (w *wtoWalk) visit(v int) int {
	w.stack = append(w.stack, v)
	w.num++
	w.dfn[v] = w.num
	head, loop := w.num, false
	for _, s := range w.succs[v] {
		low := w.dfn[s]
		if low == 0 {
			low = w.visit(s)
		}
		if low <= head {
			head, loop = low, true
		}
	}
	if head != w.dfn[v] {
		return head
	}
	w.dfn[v] = wtoDone
	top := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	if loop {
		for top != v {
			w.dfn[top] = 0
			top = w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
		}
		for _, s := range w.succs[v] {
			if w.dfn[s] == 0 {
				w.visit(s)
			}
		}
	}
	w.rev = append(w.rev, v)
	return head
}
