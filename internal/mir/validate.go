package mir

import (
	"fmt"

	"repro/internal/ctypes"
	"repro/internal/intrinsics"
)

// Validate checks the structural well-formedness of the program: register
// indices within range, branch targets valid, blocks properly terminated,
// type annotations present where the interpreter requires them, and call
// targets resolvable. It also finalises diagnostic sites. Instrumented and
// uninstrumented programs both validate.
func (p *Program) Validate() error {
	for name, f := range p.Funcs {
		if name != f.Name {
			return fmt.Errorf("mir: func registered as %q but named %q", name, f.Name)
		}
		if err := p.validateFunc(f); err != nil {
			return err
		}
		f.Finalize()
	}
	return nil
}

func (p *Program) validateFunc(f *Func) error {
	fail := func(bi, ii int, format string, args ...any) error {
		loc := fmt.Sprintf("mir: %s:%s:%d: ", f.Name, f.Blocks[bi].Name, ii)
		return fmt.Errorf(loc+format, args...)
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("mir: %s: no blocks", f.Name)
	}
	if len(f.Params) > f.NumRegs {
		return fmt.Errorf("mir: %s: %d params exceed %d registers", f.Name, len(f.Params), f.NumRegs)
	}
	checkReg := func(r int) bool { return r >= 0 && r < f.NumRegs }
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("mir: %s:%s: empty block", f.Name, b.Name)
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			term := in.Op == OpRet || in.Op == OpJmp || in.Op == OpBr
			if term != (ii == len(b.Instrs)-1) {
				return fail(bi, ii, "terminator placement invalid for op %d", in.Op)
			}
			// Register operand checks per op shape.
			uses, defs := in.regs()
			for _, r := range uses {
				if r != -1 && !checkReg(r) {
					return fail(bi, ii, "bad operand register %d", r)
				}
			}
			for _, r := range defs {
				if r != -1 && !checkReg(r) {
					return fail(bi, ii, "bad destination register %d", r)
				}
			}
			switch in.Op {
			case OpConst, OpLoad, OpStore, OpAlloca, OpMalloc, OpField, OpIndex, OpCast, OpTypeCheck:
				if in.Type == nil {
					return fail(bi, ii, "op %d requires a type annotation", in.Op)
				}
			}
			switch in.Op {
			case OpLoad, OpStore:
				if !in.Type.IsScalar() {
					return fail(bi, ii, "load/store of non-scalar type %s", in.Type)
				}
			case OpJmp:
				if in.To < 0 || in.To >= len(f.Blocks) {
					return fail(bi, ii, "jump target %d out of range", in.To)
				}
			case OpBr:
				if in.To < 0 || in.To >= len(f.Blocks) || in.Else < 0 || in.Else >= len(f.Blocks) {
					return fail(bi, ii, "branch targets %d/%d out of range", in.To, in.Else)
				}
			case OpCall:
				if callee, ok := p.Funcs[in.Callee]; ok {
					// Program functions shadow intrinsics of the same name.
					if len(in.Args) != len(callee.Params) {
						return fail(bi, ii, "call to %q with %d args, want %d",
							in.Callee, len(in.Args), len(callee.Params))
					}
					if in.Dst != -1 && callee.Ret == nil {
						return fail(bi, ii, "call captures result of void function %q", in.Callee)
					}
				} else if d := intrinsics.Lookup(in.Callee); d != nil {
					if len(in.Args) != d.NumArgs {
						return fail(bi, ii, "call to intrinsic %q with %d args, want %d",
							in.Callee, len(in.Args), d.NumArgs)
					}
					if in.Dst != -1 && d.Ret == nil {
						return fail(bi, ii, "call captures result of void intrinsic %q", in.Callee)
					}
					if d.NeedsCmp {
						cmp, ok := p.Funcs[in.Str]
						if !ok {
							return fail(bi, ii, "intrinsic %q comparator %q is not a defined function",
								in.Callee, in.Str)
						}
						if len(cmp.Params) != 2 || cmp.Ret == nil {
							return fail(bi, ii, "intrinsic %q comparator %q must take 2 arguments and return a value",
								in.Callee, in.Str)
						}
					}
				} else {
					return fail(bi, ii, "call to unknown function %q", in.Callee)
				}
			case OpGlobal:
				if in.Aux < 0 || int(in.Aux) >= len(p.Globals) {
					return fail(bi, ii, "global index %d out of range", in.Aux)
				}
			case OpRet:
				if (f.Ret == nil) != (in.A == -1) {
					return fail(bi, ii, "return arity mismatch for %s", f.Name)
				}
			}
		}
	}
	return nil
}

// Regs returns the registers an instruction uses and defines (-1 entries
// are absent operands). It is the public form of regs, consumed by the
// instrumenter's elision passes so their dataflow bookkeeping cannot
// drift from the interpreter's actual operand shapes.
func (in *Instr) Regs() (uses []int, defs []int) { return in.regs() }

// regs returns the registers an instruction uses and defines.
func (in *Instr) regs() (uses []int, defs []int) {
	switch in.Op {
	case OpConst, OpGlobal, OpAlloca:
		return nil, []int{in.Dst}
	case OpMov, OpNot, OpCast, OpLoad, OpField, OpMalloc:
		return []int{in.A}, []int{in.Dst}
	case OpBin, OpCmp, OpIndex, OpRealloc:
		return []int{in.A, in.B}, []int{in.Dst}
	case OpStore:
		return []int{in.A, in.B}, nil
	case OpMemcpy, OpMemset:
		return []int{in.A, in.B, in.C}, nil
	case OpFree, OpPrint, OpBr:
		return []int{in.A}, nil
	case OpRet:
		if in.A == -1 {
			return nil, nil
		}
		return []int{in.A}, nil
	case OpCall:
		u := append([]int(nil), in.Args...)
		if in.Dst != -1 {
			return u, []int{in.Dst}
		}
		return u, nil
	case OpBoundsCheck, OpBoundsMov:
		return []int{in.A, in.B}, nil
	case OpTypeCheck, OpBoundsGet, OpBoundsNarrow, OpEscapeCheck:
		return []int{in.A}, nil
	}
	return nil, nil
}

// pointerResult returns the pointee type if the instruction produces a
// pointer register with a known static pointee, and nil otherwise. Used
// by the instrumenter to classify input pointers (Fig. 3 (a)-(d)).
func (in *Instr) pointerResult(p *Program) *ctypes.Type {
	switch in.Op {
	case OpLoad, OpCast:
		if in.Type.Kind == ctypes.KindPointer {
			return in.Type.Elem
		}
	case OpCall:
		if f, ok := p.Funcs[in.Callee]; ok && f.Ret != nil && f.Ret.Kind == ctypes.KindPointer {
			return f.Ret.Elem
		}
	}
	return nil
}
