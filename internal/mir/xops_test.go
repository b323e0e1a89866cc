package mir

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/mem"
)

// edgeValues are register values around every width and sign boundary,
// shift counts at and past 64, and float bit patterns.
var edgeValues = []uint64{
	0, 1, 2, 7, 63, 64, 65, 127, 128, 255, 256,
	0x7fff, 0x8000, 0xffff, 0x7fffffff, 0x80000000, 0xffffffff, 1 << 32, 1 << 40,
	math.MaxInt64, 1 << 63, math.MaxUint64, // INT64_MAX, INT64_MIN, -1
	^uint64(1), ^uint64(127), ^uint64(128), ^uint64(0x7fff), ^uint64(0x7fffffff), // -2, -128, -129, -32768, -2^31
	math.Float64bits(1.5), math.Float64bits(-2.25), math.Float64bits(math.Copysign(0, -1)),
	math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()), uint64(math.Float32bits(3.5)),
}

// scalarTypes is every scalar type an operand can have.
func scalarTypes(tb *ctypes.Table) []*ctypes.Type {
	return []*ctypes.Type{
		ctypes.Bool, ctypes.Char, ctypes.SChar, ctypes.UChar, ctypes.Short, ctypes.UShort,
		ctypes.Int, ctypes.UInt, ctypes.Long, ctypes.ULong, ctypes.LongLong, ctypes.ULongLong,
		ctypes.Float, ctypes.Double, ctypes.LongDouble, tb.PointerTo(ctypes.Int),
	}
}

// outcome is a value, or the panic that replaced it.
type outcome struct {
	v     uint64
	panic string
}

func generic(f func() uint64) (o outcome) {
	defer func() {
		if e := recover(); e != nil {
			o = outcome{panic: fmt.Sprint(e)}
		}
	}()
	return outcome{v: f()}
}

// opProg builds a program whose function f runs body over params of
// types params and, unless body returns -1, returns its result as a
// long; it returns the interpreter and f's one decoded op under test.
func opProg(t *testing.T, tb *ctypes.Table, params []*ctypes.Type, body func(b *FuncBuilder) int) (*Interp, xop) {
	t.Helper()
	p := NewProgram(tb)
	ps := make([]Param, len(params))
	for i, pt := range params {
		ps[i] = Param{Name: fmt.Sprint("p", i), Type: pt}
	}
	b := NewFunc(p, "f", ctypes.Long, ps...)
	if r := body(b); r >= 0 {
		b.Ret(r)
	} else {
		b.F.Ret = nil
		b.RetVoid()
	}
	in, err := New(p, Options{Env: NewPlainEnv(nil)})
	if err != nil {
		t.Fatal(err)
	}
	return in, in.funcs["f"].code[0].op
}

func execOp(in *Interp, args ...uint64) outcome {
	v, err := in.Run("f", args...)
	if err != nil {
		return outcome{panic: err.Error()}
	}
	return outcome{v: v}
}

// TestSpecialisedOpsMatchGeneric drives every op the decoder specialises
// by type — integer arithmetic and shifts, compares, casts, loads,
// stores and indexing — over every scalar type and the edge values,
// through the executor, against the generic evalBin, evalCmp, convert,
// loadScalar and storeScalar. Division and remainder (zero divisors,
// INT64_MIN / -1) and float operands take the generic path and must
// still agree.
func TestSpecialisedOpsMatchGeneric(t *testing.T) {
	tb := ctypes.NewTable()
	types := scalarTypes(tb)
	long2 := []*ctypes.Type{ctypes.Long, ctypes.Long}

	for _, ty := range types {
		for k := BinAdd; k <= BinShr; k++ {
			in, op := opProg(t, tb, long2, func(b *FuncBuilder) int { return b.Bin(k, ty, 0, 1) })
			if !ty.IsFloat() && k != BinDiv && k != BinRem && op == xBin {
				t.Errorf("bin %d on %s not specialised", k, ty)
			}
			for _, a := range edgeValues {
				for _, c := range edgeValues {
					want := generic(func() uint64 { return evalBin(k, ty, a, c) })
					if got := execOp(in, a, c); got != want {
						t.Fatalf("bin %d on %s (%#x, %#x): executor %+v, evalBin %+v", k, ty, a, c, got, want)
					}
				}
			}
		}
		for k := CmpEq; k <= CmpGe+1; k++ {
			in, op := opProg(t, tb, long2, func(b *FuncBuilder) int { return b.Cmp(k, ty, 0, 1) })
			if !ty.IsFloat() && k <= CmpGe && op == xCmp {
				t.Errorf("cmp %d on %s not specialised", k, ty)
			}
			for _, a := range edgeValues {
				for _, c := range edgeValues {
					want := evalCmp(k, ty, a, c)
					if got := execOp(in, a, c); got != (outcome{v: want}) {
						t.Fatalf("cmp %d on %s (%#x, %#x): executor %+v, evalCmp %d", k, ty, a, c, got, want)
					}
				}
			}
		}
	}

	for _, from := range append([]*ctypes.Type{nil}, types...) {
		for _, to := range types {
			in, _ := opProg(t, tb, long2[:1], func(b *FuncBuilder) int { return b.Cast(to, from, 0) })
			for _, a := range edgeValues {
				want := convert(a, from, to)
				if got := execOp(in, a); got != (outcome{v: want}) {
					t.Fatalf("cast %s -> %s (%#x): executor %+v, convert %#x", from, to, a, got, want)
				}
			}
		}
	}

	ptr := tb.PointerTo(ctypes.Char)
	rec := tb.Complete(tb.Declare(ctypes.KindStruct, "edge"),
		[]ctypes.Member{{Name: "x", Type: ctypes.Int}, {Name: "y", Type: ctypes.Char}})
	for _, ty := range append(types, rec, tb.ArrayOf(ctypes.Short, 3)) {
		in, op := opProg(t, tb, long2, func(b *FuncBuilder) int { return b.Index(ty, 0, 1) })
		if op != xIndex {
			t.Errorf("index of %s not specialised", ty)
		}
		for _, a := range edgeValues {
			for _, c := range edgeValues {
				want := a + uint64(int64(c)*ty.Size())
				if got := execOp(in, a, c); got != (outcome{v: want}) {
					t.Fatalf("index of %s (%#x, %#x): executor %+v, want %#x", ty, a, c, got, want)
				}
			}
		}
	}

	// Loads and stores act on a 16-byte window whose unused bytes hold a
	// marker, so a wrong width shows as well as a wrong extension.
	for _, ty := range types {
		load, _ := opProg(t, tb, []*ctypes.Type{ptr}, func(b *FuncBuilder) int { return b.Load(ty, 0) })
		store, _ := opProg(t, tb, []*ctypes.Type{ptr, ctypes.Long}, func(b *FuncBuilder) int { b.Store(ty, 0, 1); return -1 })
		for _, in := range []*Interp{load, store} {
			m := in.mem
			addr := in.env.Malloc(nil, 32, core.HeapAlloc, "")
			ref := addr + 16
			for _, v := range edgeValues {
				for _, at := range []uint64{addr, ref} {
					m.Store(at, 8, 0xa5a5a5a5a5a5a5a5)
					m.Store(at+8, 8, 0xa5a5a5a5a5a5a5a5)
				}
				if in == load {
					m.Store(addr, 8, v)
					want := loadScalar(m, addr, ty)
					if got := execOp(in, addr); got != (outcome{v: want}) {
						t.Fatalf("load of %s from %#x: executor %+v, loadScalar %#x", ty, v, got, want)
					}
					continue
				}
				storeScalar(m, ref, ty, v)
				if got := execOp(in, addr, v); got.panic != "" {
					t.Fatal(got.panic)
				}
				if got, want := window(m, addr), window(m, ref); got != want {
					t.Fatalf("store of %s %#x: executor wrote %x, storeScalar %x", ty, v, got, want)
				}
			}
		}
	}
}

// loadScalar is the reference semantics of OpLoad: it reads a value of
// type t at addr and canonicalises it into the 64-bit register form:
// integers are sign/zero extended, float is widened to double bits.
func loadScalar(m *mem.Memory, addr uint64, t *ctypes.Type) uint64 {
	w := scalarWidth(t)
	raw := m.Load(addr, w)
	if t.Kind == ctypes.KindFloat {
		return math.Float64bits(float64(math.Float32frombits(uint32(raw))))
	}
	if t.IsSigned() && w < 8 {
		shift := uint(64 - 8*w)
		return uint64(int64(raw<<shift) >> shift)
	}
	return raw
}

// storeScalar is the reference semantics of OpStore: it writes a
// canonical register value of type t to addr.
func storeScalar(m *mem.Memory, addr uint64, t *ctypes.Type, v uint64) {
	w := scalarWidth(t)
	if t.Kind == ctypes.KindFloat {
		v = uint64(math.Float32bits(float32(math.Float64frombits(v))))
	}
	m.Store(addr, w, v)
}

func window(m *mem.Memory, addr uint64) [16]byte {
	var w [16]byte
	m.ReadBytes(addr, w[:])
	return w
}

// TestDecodedInstrSize pins the decoded instruction record's footprint:
// cold operands stay on the Instr it points to.
func TestDecodedInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(xinstr{}); n > 32 {
		t.Errorf("xinstr is %d bytes, want at most 32", n)
	}
}
