package mir

import (
	"fmt"
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
	// The entry comes first and the join after both arms.
	if c.wto[0] != 0 || c.wto[3] != 3 {
		t.Errorf("wto = %v, want the entry first and the join last", c.wto)
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

	if got := c.Preds[1]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("head preds = %v, want [0 2] (entry edge, back edge)", got)
	}
	// The loop (head, then body) is contiguous and precedes its exit.
	if want := []int{0, 1, 2, 3}; fmt.Sprint(c.wto) != fmt.Sprint(want) {
		t.Errorf("wto = %v, want %v", c.wto, want)
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
	if len(c.wto) != 1 || c.wto[0] != 0 {
		t.Fatalf("wto = %v, want entry only", c.wto)
	}
	if c.wtoPos[dead] != -1 {
		t.Errorf("unreachable block has wto position %d", c.wtoPos[dead])
	}
	if len(c.Preds[dead]) != 0 {
		t.Errorf("unreachable block has preds %v", c.Preds[dead])
	}
}

// buildNestedLoops builds a two-level nest with an early exit from the
// inner loop: entry -> outer -> inner -> {innerBody, outerLatch};
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

// TestCFGNestedLoops: the weak topological order nests the inner loop
// inside the outer one, and the exit both loops share comes after them.
func TestCFGNestedLoops(t *testing.T) {
	f, outer, inner := buildNestedLoops(t)
	innerBody, outerLatch, exit := inner+1, inner+2, inner+3
	c := NewCFG(f)

	if got := c.Preds[exit]; len(got) != 2 || got[0] != innerBody || got[1] != outerLatch {
		t.Fatalf("exit preds = %v, want [%d %d]", got, innerBody, outerLatch)
	}
	if want := []int{0, outer, inner, innerBody, outerLatch, exit}; fmt.Sprint(c.wto) != fmt.Sprint(want) {
		t.Errorf("wto = %v, want %v", c.wto, want)
	}
}
