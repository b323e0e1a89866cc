package mir

import (
	"testing"

	"repro/internal/ctypes"
)

// buildDiamond builds:
//
//	entry(0) -> {left(1), right(2)}; left,right -> join(3); join -> ret
func buildDiamond(t *testing.T) *Func {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "d", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	left, right, join := b.Reserve("left"), b.Reserve("right"), b.Reserve("join")
	b.Br(b.Param(0), left, right)
	b.SetBlock(left)
	b.Jmp(join)
	b.SetBlock(right)
	b.Jmp(join)
	b.SetBlock(join)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.F
}

func TestCFGDiamond(t *testing.T) {
	f := buildDiamond(t)
	c := NewCFG(f)

	if got := c.Succs[0]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("entry succs = %v, want [1 2]", got)
	}
	if got := c.Preds[3]; len(got) != 2 {
		t.Fatalf("join preds = %v, want two", got)
	}
	if c.RPO[0] != 0 {
		t.Fatalf("RPO starts at %d, want entry", c.RPO[0])
	}
	// Dominators: entry dominates everything; the branches dominate only
	// themselves; the join's idom is the entry, not a branch.
	for b := 0; b < 4; b++ {
		if !c.Dominates(0, b) {
			t.Errorf("entry should dominate block %d", b)
		}
	}
	if c.idom[3] != 0 {
		t.Errorf("idom(join) = %d, want 0", c.idom[3])
	}
	if c.idom[1] != 0 || c.idom[2] != 0 {
		t.Errorf("idom(branches) = %d,%d, want 0,0", c.idom[1], c.idom[2])
	}
	if c.Dominates(1, 3) || c.Dominates(2, 3) {
		t.Error("a branch arm must not dominate the join")
	}
	if c.Dominates(3, 1) {
		t.Error("join must not dominate an arm")
	}
	if c.idom[0] != -1 {
		t.Errorf("idom(entry) = %d, want -1", c.idom[0])
	}

}

// buildLoop builds entry(0) -> head(1); head -> {body(2), exit(3)};
// body -> head.
func buildLoop(t *testing.T) *Func {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "l", ctypes.Int, Param{Name: "n", Type: ctypes.Int})
	head, body, exit := b.Reserve("head"), b.Reserve("body"), b.Reserve("exit")
	b.Jmp(head)
	b.SetBlock(head)
	b.Br(b.Param(0), body, exit)
	b.SetBlock(body)
	b.Jmp(head)
	b.SetBlock(exit)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.F
}

func TestCFGLoop(t *testing.T) {
	f := buildLoop(t)
	c := NewCFG(f)

	if c.idom[1] != 0 || c.idom[2] != 1 || c.idom[3] != 1 {
		t.Fatalf("idoms = %d,%d,%d, want 0,1,1", c.idom[1], c.idom[2], c.idom[3])
	}
	if !c.Dominates(1, 2) || !c.Dominates(1, 3) {
		t.Error("loop head must dominate body and exit")
	}
	if c.Dominates(2, 1) {
		t.Error("body must not dominate head (entry edge bypasses it)")
	}
}

// buildUnreachable builds an entry that returns at once and a block
// no edge reaches.
func buildUnreachable(t *testing.T) (f *Func, dead int) {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "u", ctypes.Int)
	dead = b.Reserve("dead")
	b.Ret(b.Const(ctypes.Int, 0))
	b.SetBlock(dead)
	b.Ret(b.Const(ctypes.Int, 1))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.F, dead
}

func TestCFGUnreachableBlock(t *testing.T) {
	f, dead := buildUnreachable(t)
	c := NewCFG(f)
	if len(c.RPO) != 1 {
		t.Fatalf("RPO = %v, want entry only", c.RPO)
	}
	if c.idom[dead] != -1 {
		t.Errorf("unreachable block has idom %d", c.idom[dead])
	}
	if c.Dominates(0, dead) || c.Dominates(dead, 0) {
		t.Error("unreachable blocks neither dominate nor are dominated")
	}
}

// TestCFGNestedLoops stresses the iterative dominance computation on a
// nested loop with an early exit from the inner loop.
func TestCFGNestedLoops(t *testing.T) {
	f, outer, inner := buildNestedLoops(t)
	innerBody, outerLatch, exit := inner+1, inner+2, inner+3
	c := NewCFG(f)

	if c.idom[outer] != 0 || c.idom[inner] != outer || c.idom[innerBody] != inner ||
		c.idom[outerLatch] != inner {
		t.Fatalf("unexpected idoms: outer=%d inner=%d body=%d latch=%d",
			c.idom[outer], c.idom[inner], c.idom[innerBody], c.idom[outerLatch])
	}
	// exit is reached from innerBody and outerLatch, whose common
	// dominator is inner.
	if c.idom[exit] != inner {
		t.Fatalf("idom(exit) = %d, want inner (%d)", c.idom[exit], inner)
	}
}
