package mir

import "math"

// This file provides the control-flow analyses the §5.3 check-elision
// and check-motion passes need: block successors/predecessors derived
// from the terminators (OpJmp/OpBr/OpRet), a reverse postorder,
// immediate dominators via the Cooper-Harvey-Kennedy algorithm ("A
// Simple, Fast Dominance Algorithm") with an O(1) Dominates test, and
// the weak topological order SolveForward iterates in (Bourdoncle,
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

	// RPO is a reverse postorder over the blocks reachable from the
	// entry block (index 0). RPO[0] == 0.
	RPO []int

	rpoPos   []int   // block -> RPO position, -1 if unreachable
	wto      []int   // reachable blocks in weak topological order
	wtoPos   []int   // block -> wto position, -1 if unreachable
	idom     []int   // block -> immediate dominator, -1 for entry/unreachable
	children [][]int // dominator-tree children, ordered by RPO
	pre      []int   // dominator-tree DFS entry numbering (for Dominates)
	post     []int   // dominator-tree DFS exit numbering
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

// NewCFG builds the control-flow graph, reverse postorder, dominator
// tree and weak topological order of f.
func NewCFG(f *Func) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		f:      f,
		Succs:  make([][]int, n),
		Preds:  make([][]int, n),
		rpoPos: make([]int, n),
		idom:   make([]int, n),
	}
	for i, b := range f.Blocks {
		c.Succs[i] = blockSuccs(b)
	}
	for i, ss := range c.Succs {
		for _, s := range ss {
			c.Preds[s] = append(c.Preds[s], i)
		}
	}
	c.buildRPO()
	c.buildDominators()
	c.buildDomTree()
	c.buildWTO()
	return c
}

// buildRPO computes a reverse postorder of the blocks reachable from
// block 0 (iterative DFS, postorder reversed).
func (c *CFG) buildRPO() {
	n := len(c.f.Blocks)
	for i := range c.rpoPos {
		c.rpoPos[i] = -1
	}
	if n == 0 {
		return
	}
	visited := make([]bool, n)
	var post []int
	type frame struct {
		b    int
		next int
	}
	stack := []frame{{0, 0}}
	visited[0] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(c.Succs[fr.b]) {
			s := c.Succs[fr.b][fr.next]
			fr.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, fr.b)
		stack = stack[:len(stack)-1]
	}
	c.RPO = make([]int, len(post))
	for i, b := range post {
		c.RPO[len(post)-1-i] = b
	}
	for pos, b := range c.RPO {
		c.rpoPos[b] = pos
	}
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
	w := &wtoWalk{succs: c.Succs, dfn: make([]int, n), rev: make([]int, 0, len(c.RPO))}
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

// buildDominators runs the Cooper-Harvey-Kennedy iterative dominance
// algorithm over the reverse postorder.
func (c *CFG) buildDominators() {
	for i := range c.idom {
		c.idom[i] = -1
	}
	if len(c.RPO) == 0 {
		return
	}
	// The algorithm wants idom[entry] = entry while iterating.
	c.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO[1:] {
			newIdom := -1
			for _, p := range c.Preds[b] {
				if c.idom[p] == -1 && p != 0 {
					continue // predecessor not yet processed (or unreachable)
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = c.intersect(p, newIdom)
				}
			}
			if newIdom != -1 && c.idom[b] != newIdom {
				c.idom[b] = newIdom
				changed = true
			}
		}
	}
	c.idom[0] = -1 // the entry block has no immediate dominator
}

// intersect walks the two dominator chains up to their common ancestor,
// comparing by RPO position (CHK's two-finger walk).
func (c *CFG) intersect(a, b int) int {
	for a != b {
		for c.rpoPos[a] > c.rpoPos[b] {
			a = c.idomOrEntry(a)
		}
		for c.rpoPos[b] > c.rpoPos[a] {
			b = c.idomOrEntry(b)
		}
	}
	return a
}

func (c *CFG) idomOrEntry(b int) int {
	if b == 0 {
		return 0
	}
	if d := c.idom[b]; d != -1 {
		return d
	}
	return 0
}

// buildDomTree materialises the children lists and the DFS interval
// numbering that makes Dominates an O(1) range test.
func (c *CFG) buildDomTree() {
	n := len(c.f.Blocks)
	c.children = make([][]int, n)
	for _, b := range c.RPO[1:] { // RPO order keeps children deterministic
		c.children[c.idom[b]] = append(c.children[c.idom[b]], b)
	}
	c.pre = make([]int, n)
	c.post = make([]int, n)
	for i := range c.pre {
		c.pre[i], c.post[i] = -1, -1
	}
	if len(c.RPO) == 0 {
		return
	}
	clock := 0
	type frame struct {
		b    int
		next int
	}
	stack := []frame{{0, 0}}
	c.pre[0] = clock
	clock++
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(c.children[fr.b]) {
			ch := c.children[fr.b][fr.next]
			fr.next++
			c.pre[ch] = clock
			clock++
			stack = append(stack, frame{ch, 0})
			continue
		}
		c.post[fr.b] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
}

// Dominates reports whether block a dominates block b (every path from
// the entry to b passes through a; a dominates itself). Unreachable
// blocks dominate nothing and are dominated by nothing.
func (c *CFG) Dominates(a, b int) bool {
	if c.pre[a] == -1 || c.pre[b] == -1 {
		return false
	}
	return c.pre[a] <= c.pre[b] && c.post[b] <= c.post[a]
}
