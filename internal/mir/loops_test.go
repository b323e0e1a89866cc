package mir

import (
	"testing"

	"repro/internal/ctypes"
)

// findOneLoop runs FindLoops and asserts exactly one reducible loop.
func findOneLoop(t *testing.T, f *Func) (*CFG, *Loop) {
	t.Helper()
	c := NewCFG(f)
	li := FindLoops(c)
	if li.Irreducible {
		t.Fatal("reducible CFG flagged irreducible")
	}
	if len(li.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(li.Loops))
	}
	return c, li.Loops[0]
}

func TestFindLoopsSimple(t *testing.T) {
	f := buildLoop(t) // entry(0) -> head(1); head -> {body(2), exit(3)}; body -> head
	_, l := findOneLoop(t, f)
	if l.Header != 1 {
		t.Errorf("header = %d, want 1", l.Header)
	}
	if len(l.Latches) != 1 || l.Latches[0] != 2 {
		t.Errorf("latches = %v, want [2]", l.Latches)
	}
	if len(l.Body) != 2 || l.Body[0] != 1 || l.Body[1] != 2 {
		t.Errorf("body = %v, want [1 2]", l.Body)
	}
	if l.Depth != 1 || l.Parent != -1 {
		t.Errorf("depth=%d parent=%d, want 1, -1", l.Depth, l.Parent)
	}
	// The entry block jumps straight to the header and nowhere else: it
	// is the natural preheader.
	if l.Preheader != 0 {
		t.Errorf("preheader = %d, want 0", l.Preheader)
	}
	for b, want := range map[int]bool{0: false, 1: true, 2: true, 3: false} {
		if l.Contains(b) != want {
			t.Errorf("Contains(%d) = %v, want %v", b, l.Contains(b), want)
		}
	}
}

// buildSelfLoop builds entry(0) -> head; head -> {head, exit}.
func buildSelfLoop(t *testing.T) (f *Func, head int) {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "s", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	head, exit := b.Reserve("head"), b.Reserve("exit")
	b.Jmp(head)
	b.SetBlock(head)
	b.Br(b.Param(0), head, exit)
	b.SetBlock(exit)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.F, head
}

// TestFindLoopsSelfLoop: a single block that branches back to itself is
// a loop whose header is its own (only) latch.
func TestFindLoopsSelfLoop(t *testing.T) {
	f, head := buildSelfLoop(t)
	_, l := findOneLoop(t, f)
	if l.Header != head || len(l.Latches) != 1 || l.Latches[0] != head {
		t.Errorf("header=%d latches=%v, want header==latch==%d", l.Header, l.Latches, head)
	}
	if len(l.Body) != 1 || l.Body[0] != head {
		t.Errorf("body = %v, want [%d]", l.Body, head)
	}
	if l.Preheader != 0 {
		t.Errorf("preheader = %d, want entry", l.Preheader)
	}
}

// buildSharedHeader builds a loop with two back edges into one header
// (a `continue`-style shape): entry(0) -> head; head -> {l1, exit};
// l1 -> {head, l2}; l2 -> head.
func buildSharedHeader(t *testing.T) (f *Func, head, l1, l2 int) {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "m", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	head, l1, l2, exit := b.Reserve("head"), b.Reserve("l1"), b.Reserve("l2"), b.Reserve("exit")
	b.Jmp(head)
	b.SetBlock(head)
	b.Br(b.Param(0), l1, exit)
	b.SetBlock(l1)
	b.Br(b.Param(0), head, l2) // back edge 1 (the "continue")
	b.SetBlock(l2)
	b.Jmp(head) // back edge 2 (the normal latch)
	b.SetBlock(exit)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.F, head, l1, l2
}

// TestFindLoopsSharedHeader: two back edges into one header merge into
// ONE loop with two latches, not two overlapping loops.
func TestFindLoopsSharedHeader(t *testing.T) {
	f, head, l1, l2 := buildSharedHeader(t)
	_, l := findOneLoop(t, f)
	if l.Header != head {
		t.Fatalf("header = %d, want %d", l.Header, head)
	}
	if len(l.Latches) != 2 {
		t.Fatalf("latches = %v, want both %d and %d", l.Latches, l1, l2)
	}
	got := map[int]bool{l.Latches[0]: true, l.Latches[1]: true}
	if !got[l1] || !got[l2] {
		t.Errorf("latches = %v, want {%d, %d}", l.Latches, l1, l2)
	}
	if len(l.Body) != 3 || !l.Contains(head) || !l.Contains(l1) || !l.Contains(l2) {
		t.Errorf("body = %v, want {head, l1, l2}", l.Body)
	}
}

// buildNestedLoops builds the two-level nest of cfg_test's
// TestCFGNestedLoops: entry -> outer -> inner -> {innerBody, outerLatch};
// innerBody -> {inner, exit}; outerLatch -> {outer, exit}.
func buildNestedLoops(t *testing.T) (f *Func, outer, inner int) {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "n", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	outer = b.Reserve("outer")
	inner = b.Reserve("inner")
	innerBody := b.Reserve("innerBody")
	outerLatch := b.Reserve("outerLatch")
	exit := b.Reserve("exit")
	b.Jmp(outer)
	b.SetBlock(outer)
	b.Jmp(inner)
	b.SetBlock(inner)
	b.Br(b.Param(0), innerBody, outerLatch)
	b.SetBlock(innerBody)
	b.Br(b.Param(0), inner, exit)
	b.SetBlock(outerLatch)
	b.Br(b.Param(0), outer, exit)
	b.SetBlock(exit)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.F, outer, inner
}

func TestFindLoopsNested(t *testing.T) {
	f, outer, inner := buildNestedLoops(t)
	c := NewCFG(f)
	li := FindLoops(c)
	if li.Irreducible || len(li.Loops) != 2 {
		t.Fatalf("loops=%d irreducible=%v, want 2 reducible loops", len(li.Loops), li.Irreducible)
	}
	// Ascending body size: the inner loop (2 blocks) precedes the outer
	// one (4 blocks).
	in, out := li.Loops[0], li.Loops[1]
	if in.Header != inner || len(in.Body) != 2 {
		t.Fatalf("inner loop: header=%d body=%v, want header=%d, 2 blocks", in.Header, in.Body, inner)
	}
	if out.Header != outer || len(out.Body) != 4 {
		t.Fatalf("outer loop: header=%d body=%v, want header=%d, 4 blocks", out.Header, out.Body, outer)
	}
	if in.Parent != 1 || out.Parent != -1 {
		t.Errorf("parents = %d, %d, want inner's parent = outer (1), outer's = -1", in.Parent, out.Parent)
	}
	if in.Depth != 2 || out.Depth != 1 {
		t.Errorf("depths = %d, %d, want 2, 1", in.Depth, out.Depth)
	}
	// Preheaders: the outer header's unique outside predecessor is the
	// entry; the inner header's is the outer header itself.
	if out.Preheader != 0 {
		t.Errorf("outer preheader = %d, want 0", out.Preheader)
	}
	if in.Preheader != outer {
		t.Errorf("inner preheader = %d, want %d", in.Preheader, outer)
	}
	// InnermostFirst processes the inner loop before the one containing
	// it, so hoisted code can migrate outward one level at a time.
	order := li.InnermostFirst()
	if len(order) != 2 || order[0].Header != inner || order[1].Header != outer {
		t.Errorf("InnermostFirst headers = [%d %d], want [%d %d]",
			order[0].Header, order[1].Header, inner, outer)
	}
}

// TestFindLoopsIrreducible: a two-entry region (entry branches to both a
// and b, which branch to each other) has a retreating edge whose target
// does not dominate its source. FindLoops must flag it and produce no
// natural loop for that edge — the motion passes refuse such functions
// wholesale.
func TestFindLoopsIrreducible(t *testing.T) {
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "ir", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	ba, bb, exit := b.Reserve("a"), b.Reserve("b"), b.Reserve("exit")
	b.Br(b.Param(0), ba, bb)
	b.SetBlock(ba)
	b.Jmp(bb)
	b.SetBlock(bb)
	b.Br(b.Param(0), ba, exit)
	b.SetBlock(exit)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	li := FindLoops(NewCFG(b.F))
	if !li.Irreducible {
		t.Error("two-entry region not flagged irreducible")
	}
	if len(li.Loops) != 0 {
		t.Errorf("irreducible region produced %d natural loops, want 0", len(li.Loops))
	}
}

// TestAddPreheader: a header with several outside predecessors has no
// natural preheader; AddPreheader materialises one and retargets every
// entry edge to it, leaving back edges on the header.
func TestAddPreheader(t *testing.T) {
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "ph", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	p1, p2, head, exit := b.Reserve("p1"), b.Reserve("p2"), b.Reserve("head"), b.Reserve("exit")
	b.Br(b.Param(0), p1, p2)
	b.SetBlock(p1)
	b.Jmp(head)
	b.SetBlock(p2)
	b.Jmp(head)
	b.SetBlock(head)
	b.Br(b.Param(0), head, exit) // self-loop
	b.SetBlock(exit)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	c := NewCFG(b.F)
	li := FindLoops(c)
	if len(li.Loops) != 1 || li.Loops[0].Preheader != -1 {
		t.Fatalf("loop with two entry predecessors reported preheader %d, want -1",
			li.Loops[0].Preheader)
	}

	np := AddPreheader(b.F, c, li.Loops[0])
	if np != exit+1 {
		t.Fatalf("AddPreheader returned %d, want fresh block %d", np, exit+1)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("function invalid after AddPreheader: %v", err)
	}
	// Recompute: the loop now has the fresh block as preheader, and the
	// header's only outside predecessor is that block.
	c = NewCFG(b.F)
	li = FindLoops(c)
	if len(li.Loops) != 1 || li.Loops[0].Preheader != np {
		t.Fatalf("after insertion: preheader = %d, want %d", li.Loops[0].Preheader, np)
	}
	for _, pr := range c.Preds[head] {
		if pr != np && pr != head {
			t.Errorf("header kept entry predecessor %d after AddPreheader", pr)
		}
	}
	nb := b.F.Blocks[np]
	if len(nb.Instrs) != 1 || nb.Instrs[0].Op != OpJmp || nb.Instrs[0].To != head {
		t.Errorf("preheader block is %v, want a single jump to the header", nb.Instrs)
	}
}

// buildEntryLoop builds entry(0) -> {entry, exit}: a loop headed at the
// entry block itself.
func buildEntryLoop(t *testing.T) *Func {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "e", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	exit := b.Reserve("exit")
	b.Br(b.Param(0), 0, exit) // entry loops on itself
	b.SetBlock(exit)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.F
}

// TestAddPreheaderEntryHeader: the entry block's implicit function-entry
// edge cannot be retargeted, so a loop headed at the entry gets no
// preheader.
func TestAddPreheaderEntryHeader(t *testing.T) {
	f := buildEntryLoop(t)
	c := NewCFG(f)
	li := FindLoops(c)
	if len(li.Loops) != 1 || li.Loops[0].Header != 0 {
		t.Fatalf("loops = %+v, want one loop headed at entry", li.Loops)
	}
	if got := AddPreheader(f, c, li.Loops[0]); got != -1 {
		t.Errorf("AddPreheader on the entry header returned %d, want -1", got)
	}
}

func TestSplitEdge(t *testing.T) {
	f := buildDiamond(t) // entry(0) -> {left(1), right(2)} -> join(3)
	ns := SplitEdge(f, 0, 1)
	if ns != 4 {
		t.Fatalf("SplitEdge returned %d, want 4", ns)
	}
	nb := f.Blocks[ns]
	if len(nb.Instrs) != 1 || nb.Instrs[0].Op != OpJmp || nb.Instrs[0].To != 1 {
		t.Fatalf("split block is %v, want a single jump to the old target", nb.Instrs)
	}
	c := NewCFG(f)
	if got := c.Preds[1]; len(got) != 1 || got[0] != ns {
		t.Errorf("left's preds = %v, want only the split block", got)
	}
	found := false
	for _, s := range c.Succs[0] {
		if s == 1 {
			t.Error("entry still reaches the old target directly")
		}
		if s == ns {
			found = true
		}
	}
	if !found {
		t.Error("entry does not reach the split block")
	}

	defer func() {
		if recover() == nil {
			t.Error("SplitEdge on a non-edge did not panic")
		}
	}()
	SplitEdge(f, 1, 2) // left -> right is not an edge
}
