// Package mir defines a typed, C-like three-address intermediate
// representation and its interpreter.
//
// The paper implements EffectiveSan as an LLVM pass over type-annotated
// IR; Go has no practical LLVM tooling, so this package substitutes a
// small IR that models exactly the operations the Fig. 3 instrumentation
// schema classifies:
//
//   - pointer inputs: function parameters, call returns, pointer loads,
//     pointer casts (rules (a)-(d));
//   - derived pointers: field selection and indexing (rules (e)-(f));
//   - pointer uses and escapes: loads, stores, call arguments, returns
//     (rule (g)).
//
// Programs are built by the mini-C frontend (package cc) or directly via
// the Builder, instrumented by package instrument (which inserts the
// OpTypeCheck/OpBoundsCheck/... pseudo-ops), and executed by the
// interpreter over the simulated memory. Baseline sanitizers hook the
// interpreter through the Hooks interface instead of rewriting the IR,
// mirroring how runtime-interception tools work.
//
// CFG (cfg.go) provides the control-flow analyses the instrumenter's
// §5.3 elision and motion passes run on: successors from the block
// terminators, reverse postorder, Cooper-Harvey-Kennedy dominators and
// the weak topological order the dataflow solver iterates in.
package mir

import (
	"fmt"

	"repro/internal/ctypes"
)

// MallocLegacy, set as OpMalloc.Aux, routes the allocation through the
// environment's legacy (non-low-fat) allocator — modelling custom memory
// allocators whose objects EffectiveSan cannot type (§6).
const MallocLegacy = 1

// Op enumerates MIR instructions.
type Op uint8

// Core instruction set.
const (
	OpNop Op = iota

	// Values.
	OpConst // Dst = Imm (bit pattern; floats as float64 bits), typed Type
	OpMov   // Dst = A
	OpBin   // Dst = A <BinKind(Aux)> B, operand type Type
	OpCmp   // Dst = A <CmpKind(Aux)> B (0/1), operand type Type
	OpNot   // Dst = !A (logical)
	OpCast  // Dst = (Type)A; CastFrom holds the source type

	// Memory objects.
	OpGlobal  // Dst = address of Globals[Aux]
	OpAlloca  // Dst = address of a fresh stack object Type[Aux]
	OpMalloc  // Dst = type_malloc(Type, size = A bytes)
	OpFree    // free(A)
	OpRealloc // Dst = realloc(A, size = B bytes)

	// Memory access.
	OpLoad   // Dst = *(Type*)A
	OpStore  // *(Type*)A = B, typed Type
	OpField  // Dst = A + Aux (field at byte offset Aux, field type Type)
	OpIndex  // Dst = A + B*sizeof(Type) (element type Type; B signed)
	OpMemcpy // memcpy(A, B, C)
	OpMemset // memset(A, byte B, C)

	// Control flow.
	//
	// OpCall's Callee is either a program function or the name of a libc
	// intrinsic (package intrinsics); program functions shadow intrinsics.
	// On intrinsic calls Aux carries the base check-site ID the instrument
	// pass reserved — one consecutive ID per pointer argument, 0 meaning
	// unchecked — and Str carries qsort's comparator function name.
	OpCall // Dst = Callee(Args...); intrinsics: Aux = site-ID base, Str = comparator
	OpRet  // return A (A == -1 for void)
	OpJmp  // goto To
	OpBr   // if A != 0 goto To else Else

	// Output (for examples and debugging).
	OpPrint // print register A formatted per Type
	OpPuts  // print literal Str

	// Instrumentation pseudo-ops, inserted by package instrument. They
	// read/write the bounds register file, which shadows the value
	// registers one-to-one (see the provenance note on Instr).
	//
	// OpTypeCheck.Aux carries the check's site ID: a stable 1-based
	// integer the instrument pass assigns to every static OpTypeCheck it
	// emits, in sorted-function then block then instruction order, after
	// all elision passes have run. The runtime uses it to select the
	// §5.3 per-site one-entry inline cache; 0 marks an unsited check
	// (hand-built IR), which bypasses the inline level.
	OpTypeCheck    // bounds[A] = type_check(A, Type[]), Aux = site ID (Fig. 3(a)-(d))
	OpBoundsGet    // bounds[A] = allocation bounds of A    (bounds variant)
	OpBoundsNarrow // bounds[A] = narrow(bounds[A], A..A+Aux) (Fig. 3(e))
	OpBoundsCheck  // bounds_check(A, size Aux, bounds[A])  (Fig. 3(g))
	OpEscapeCheck  // escape check of pointer A against bounds[A]
	// OpBoundsMov copies a bounds register: bounds[A] = bounds[B]. The
	// elision pass inserts it when value numbering proves a type check
	// of A recomputes the check of another register B holding the same
	// value — the check is removed, but A's bounds register must still
	// receive the earlier check's result for downstream narrows and
	// bounds checks. It never consults the runtime.
	OpBoundsMov
)

// BinKind selects an OpBin operation (Instr.Aux).
type BinKind int64

// Binary operations. Signedness and floatness come from Instr.Type.
const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
)

// CmpKind selects an OpCmp comparison (Instr.Aux).
type CmpKind int64

// Comparisons. Signedness and floatness come from Instr.Type.
const (
	CmpEq CmpKind = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Instr is one MIR instruction. Fields are interpreted per Op; unused
// register fields are -1.
//
// Provenance semantics: every value register r has a shadow bounds
// register bounds[r], holding the (sub-)object bounds the last check of
// r established. The interpreter propagates bounds through the ops that
// preserve pointer provenance — OpMov copies bounds[A] to bounds[Dst],
// OpCast does the same (casts don't move the pointer), and
// OpField/OpIndex carry the base's bounds to the derived pointer — while
// every other def resets bounds[Dst] to Wide. The instrument pass leans
// on exactly this propagation when it elides a check: "the provenance of
// S was already checked" means some earlier check wrote bounds for a
// register this one transitively copies from, with no intervening
// redefinition. Regs (validate.go) is the authoritative use/def shape
// per op; the elision passes consume it so their dataflow bookkeeping
// cannot drift from the interpreter's operand handling.
type Instr struct {
	Op       Op
	Dst      int
	A, B, C  int
	Imm      int64
	Aux      int64
	Type     *ctypes.Type
	CastFrom *ctypes.Type // OpCast: source static type
	To, Else int          // block indices for OpJmp/OpBr
	Callee   string       // OpCall target
	Args     []int        // OpCall argument registers
	Str      string       // OpPuts literal; OpCall comparator name (qsort)
	Site     string       // diagnostic location, filled by Finalize
}

// Param is a function parameter.
type Param struct {
	Name string
	Type *ctypes.Type
}

// Block is a basic block: straight-line instructions ended by a
// terminator (OpRet, OpJmp or OpBr).
type Block struct {
	Name   string
	Instrs []Instr
}

// Func is a MIR function. Parameters occupy registers 0..len(Params)-1.
type Func struct {
	Name    string
	Params  []Param
	Ret     *ctypes.Type // nil for void
	NumRegs int
	Blocks  []*Block
}

// Global is a module-level object of dynamic type Type[Count].
type Global struct {
	Name  string
	Type  *ctypes.Type
	Count uint64
	// Array distinguishes `T g[1]` (an array of one element, indexed)
	// from `T g` (a plain object) — the declared shapes differ even
	// though the allocation is identical.
	Array bool
}

// Program is a complete MIR module.
type Program struct {
	Types   *ctypes.Table
	Funcs   map[string]*Func
	Globals []*Global
}

// NewProgram returns an empty program over the given type table.
func NewProgram(tb *ctypes.Table) *Program {
	return &Program{Types: tb, Funcs: make(map[string]*Func)}
}

// AddGlobal registers a global and returns its index (for OpGlobal.Aux).
func (p *Program) AddGlobal(name string, t *ctypes.Type, count uint64) int {
	p.Globals = append(p.Globals, &Global{Name: name, Type: t, Count: count})
	return len(p.Globals) - 1
}

// GlobalIndex returns the index of the named global, or -1.
func (p *Program) GlobalIndex(name string) int {
	for i, g := range p.Globals {
		if g.Name == name {
			return i
		}
	}
	return -1
}

// Finalize assigns diagnostic sites to every instruction ("func:block:i")
// and must be called (directly or via Validate) before execution.
func (f *Func) Finalize() {
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Site == "" {
				b.Instrs[i].Site = fmt.Sprintf("%s:%s:%d", f.Name, b.Name, i)
			}
			_ = bi
		}
	}
}

// NumInstrs returns the total instruction count (instrumentation-size
// metric used by tests and the harness).
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Clone returns a deep copy of the function (the instrumenter transforms
// copies, leaving the original program reusable across configurations).
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:    f.Name,
		Params:  append([]Param(nil), f.Params...),
		Ret:     f.Ret,
		NumRegs: f.NumRegs,
		Blocks:  make([]*Block, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		nb := &Block{Name: b.Name, Instrs: make([]Instr, len(b.Instrs))}
		copy(nb.Instrs, b.Instrs)
		for j := range nb.Instrs {
			if nb.Instrs[j].Args != nil {
				nb.Instrs[j].Args = append([]int(nil), nb.Instrs[j].Args...)
			}
		}
		nf.Blocks[i] = nb
	}
	return nf
}

// Clone returns a deep copy of the whole program.
func (p *Program) Clone() *Program {
	np := &Program{
		Types:   p.Types,
		Funcs:   make(map[string]*Func, len(p.Funcs)),
		Globals: append([]*Global(nil), p.Globals...),
	}
	for name, f := range p.Funcs {
		np.Funcs[name] = f.Clone()
	}
	return np
}
