package vector

import (
	"fmt"
	"math"
	"sort"

	"rumble/internal/functions"
	"rumble/internal/item"
)

// CmpOp is a value-comparison operator code.
type CmpOp int

// The six value comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// ParseCmpOp maps the AST spelling of a value comparison to its code.
func ParseCmpOp(op string) (CmpOp, bool) {
	switch op {
	case "eq":
		return CmpEq, true
	case "ne":
		return CmpNe, true
	case "lt":
		return CmpLt, true
	case "le":
		return CmpLe, true
	case "gt":
		return CmpGt, true
	case "ge":
		return CmpGe, true
	default:
		return 0, false
	}
}

// matches reports whether a three-way comparison result c satisfies op.
func (op CmpOp) matches(c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	default:
		return false
	}
}

// Lookup extracts the key field of every object row of in: non-objects and
// absent keys contribute the empty sequence, mirroring the tuple backend's
// object lookup.
func (s *Scratch) Lookup(in *Col, key string, n int) *Col {
	out := s.NewCol(n)
	for i := 0; i < n; i++ {
		j := in.idx(i)
		if in.Tags[j] == TagItem {
			if obj, ok := in.Items[j].(*item.Object); ok {
				if v, found := obj.Get(key); found {
					out.AppendItem(v)
					continue
				}
			}
		}
		out.AppendAbsent()
	}
	return out
}

// exactFloatInt is the largest int64 magnitude exactly representable as a
// float64 (2^53): below it, an int column row compares against a finite
// double row in pure float arithmetic without losing exactness.
const exactFloatInt = int64(1) << 53

// dictProbe is a comparison literal translated into a sorted dictionary
// once per batch: lo is the rank of the first dictionary entry >= the
// literal (sort.SearchStrings), exact whether that entry equals it. A code
// k then three-way-compares against the literal without touching string
// bytes: k < lo ⇒ less, k == lo && exact ⇒ equal, otherwise greater.
type dictProbe struct {
	lo    int64
	exact bool
}

func probeDict(dict []string, lit string) *dictProbe {
	lo := sort.SearchStrings(dict, lit)
	return &dictProbe{lo: int64(lo), exact: lo < len(dict) && dict[lo] == lit}
}

func (p *dictProbe) cmp(code int64) int {
	switch {
	case code < p.lo:
		return -1
	case code == p.lo && p.exact:
		return 0
	default:
		return 1
	}
}

// constString returns the broadcast string of a Const TagString column
// without a dictionary (the shape a pushed-down comparison literal takes).
func constString(c *Col) (string, bool) {
	if c.Const && len(c.Tags) == 1 && c.Tags[0] == TagString && c.Dict == nil {
		return c.Strs[0], true
	}
	return "", false
}

// Compare applies a value comparison row-by-row with the tuple backend's
// semantics: an absent operand absorbs to absent, a non-atomic operand is
// an error, and mixed-type rows fall back to item.CompareValues so cross-
// type exactness (and its error cases) match exactly. A dictionary column
// compared against a constant string literal translates the literal into
// the dictionary once and compares codes. The output is on the heap.
func Compare(l, r *Col, n int, op CmpOp) (*Col, error) {
	return (*Scratch)(nil).compare(l, r, n, op)
}

// compare is Compare with its output from s.
func (s *Scratch) compare(l, r *Col, n int, op CmpOp) (*Col, error) {
	var lProbe, rProbe *dictProbe
	if l.Dict != nil {
		if lit, ok := constString(r); ok {
			lProbe = probeDict(l.Dict, lit)
		}
	}
	if r.Dict != nil {
		if lit, ok := constString(l); ok {
			rProbe = probeDict(r.Dict, lit)
		}
	}
	out := s.NewCol(n)
	for i := 0; i < n; i++ {
		li, ri := l.idx(i), r.idx(i)
		lt, rt := l.Tags[li], r.Tags[ri]
		if lt == TagAbsent || rt == TagAbsent {
			out.AppendAbsent()
			continue
		}
		if !l.atomic(i) {
			return nil, errNonAtomic("comparison operand", l.Kind(i))
		}
		if !r.atomic(i) {
			return nil, errNonAtomic("comparison operand", r.Kind(i))
		}
		var c int
		switch {
		case lt == TagInt && rt == TagInt:
			c = cmpInt(l.Ints[li], r.Ints[ri])
		case lt == TagDouble && rt == TagDouble:
			// Pure float ordering, including its NaN behavior — exactly
			// what CompareValues does for double-double pairs.
			c = cmpFloat(l.Nums[li], r.Nums[ri])
		case lt == TagString && rt == TagString:
			switch {
			case lProbe != nil:
				c = lProbe.cmp(l.Ints[li])
			case rProbe != nil:
				c = -rProbe.cmp(r.Ints[ri])
			default:
				c = cmpString(l.str(li), r.str(ri))
			}
		case lt == TagInt && rt == TagDouble && intDoubleExact(l.Ints[li], r.Nums[ri]):
			c = cmpFloat(float64(l.Ints[li]), r.Nums[ri])
		case lt == TagDouble && rt == TagInt && intDoubleExact(r.Ints[ri], l.Nums[li]):
			c = cmpFloat(l.Nums[li], float64(r.Ints[ri]))
		case (lt == TagFalse || lt == TagTrue) && (rt == TagFalse || rt == TagTrue):
			c = cmpInt(int64(lt), int64(rt)) // TagFalse < TagTrue
		default:
			var err error
			c, err = item.CompareValues(l.Item(i), r.Item(i))
			if err != nil {
				return nil, err
			}
		}
		out.AppendBool(op.matches(c))
	}
	return out, nil
}

// intDoubleExact reports whether a plain float comparison of v against f is
// exact: f must be finite (non-finite pairs use float ordering anyway, but
// NaN handling lives in the slow path) and v exactly representable.
func intDoubleExact(v int64, f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0) && v >= -exactFloatInt && v <= exactFloatInt
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// arith applies a binary arithmetic operator row-by-row: absent operands
// absorb, int/int and double rows run in typed loops, and anything else —
// decimals, overflow, division promotion, non-numeric operands — falls
// back to item.Arithmetic so results and errors match the tuple backend.
func (s *Scratch) arith(l, r *Col, n int, op item.ArithOp) (*Col, error) {
	out := s.NewCol(n)
	for i := 0; i < n; i++ {
		li, ri := l.idx(i), r.idx(i)
		lt, rt := l.Tags[li], r.Tags[ri]
		if lt == TagAbsent || rt == TagAbsent {
			out.AppendAbsent()
			continue
		}
		if !l.atomic(i) {
			return nil, errNonAtomic("arithmetic operand", l.Kind(i))
		}
		if !r.atomic(i) {
			return nil, errNonAtomic("arithmetic operand", r.Kind(i))
		}
		if lt == TagInt && rt == TagInt {
			if v, ok := intFast(op, l.Ints[li], r.Ints[ri]); ok {
				out.AppendInt(v)
				continue
			}
		} else if (lt == TagInt || lt == TagDouble) && (rt == TagInt || rt == TagDouble) &&
			(lt == TagDouble || rt == TagDouble) {
			// Each operand is read from the lane its own tag names: an int
			// row need not lie inside the Nums lane.
			if v, ok := doubleFast(op, l.num(li), r.num(ri)); ok {
				out.AppendDouble(v)
				continue
			}
		}
		res, err := item.Arithmetic(op, l.Item(i), r.Item(i))
		if err != nil {
			return nil, err
		}
		out.AppendItem(res)
	}
	return out, nil
}

// num returns physical row i, a TagInt or TagDouble row, as a float64.
func (c *Col) num(i int) float64 {
	if c.Tags[i] == TagInt {
		return float64(c.Ints[i])
	}
	return c.Nums[i]
}

// intFast computes op over int64 operands when the result provably matches
// item.Arithmetic's Int result: overflow, promotion (div) and error cases
// (zero divisors) decline to the generic path.
func intFast(op item.ArithOp, a, b int64) (int64, bool) {
	switch op {
	case item.OpAdd:
		r := a + b
		if (b > 0 && r < a) || (b < 0 && r > a) {
			return 0, false
		}
		return r, true
	case item.OpSub:
		if b == math.MinInt64 {
			return 0, false
		}
		r := a - b
		if (b < 0 && r < a) || (b > 0 && r > a) {
			return 0, false
		}
		return r, true
	case item.OpMul:
		if a == 0 {
			return 0, true
		}
		r := a * b
		if r/a != b {
			return 0, false
		}
		return r, true
	case item.OpIDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case item.OpMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	default:
		return 0, false // div promotes to decimal
	}
}

// doubleFast computes op over float64 operands for the operators whose
// double semantics are a plain float op; idiv and mod have edge-case
// errors and integer results, so they take the generic path.
func doubleFast(op item.ArithOp, a, b float64) (float64, bool) {
	switch op {
	case item.OpAdd:
		return a + b, true
	case item.OpSub:
		return a - b, true
	case item.OpMul:
		return a * b, true
	case item.OpDiv:
		return a / b, true
	default:
		return 0, false
	}
}

// unary applies unary plus/minus row-by-row with the tuple backend's
// semantics: absent absorbs, plus requires (and passes through) a numeric,
// minus negates via item.Negate on the slow path.
func (s *Scratch) unary(in *Col, n int, minus bool) (*Col, error) {
	out := s.NewCol(n)
	for i := 0; i < n; i++ {
		j := in.idx(i)
		switch in.Tags[j] {
		case TagAbsent:
			out.AppendAbsent()
			continue
		case TagInt:
			if !minus {
				out.AppendInt(in.Ints[j])
				continue
			}
			if in.Ints[j] != math.MinInt64 {
				out.AppendInt(-in.Ints[j])
				continue
			}
		case TagDouble:
			if minus {
				out.AppendDouble(-in.Nums[j])
			} else {
				out.AppendDouble(in.Nums[j])
			}
			continue
		}
		if !in.atomic(i) {
			return nil, errNonAtomic("unary operand", in.Kind(i))
		}
		it := in.Item(i)
		if !minus {
			if !item.IsNumeric(it) {
				return nil, fmt.Errorf("unary plus requires a numeric operand, got %s", it.Kind())
			}
			out.AppendItem(it)
			continue
		}
		neg, err := item.Negate(it)
		if err != nil {
			return nil, err
		}
		out.AppendItem(neg)
	}
	return out, nil
}

// makeObjects builds one object of shape per row from parallel value
// columns; absent values become null, as in the tuple backend's object
// constructor. The objects and their values come from two heap slabs,
// never from s: results outlive the morsel.
func (s *Scratch) makeObjects(shape *item.Shape, vals []*Col, n int) *Col {
	k := len(vals)
	values := make([]item.Item, n*k)
	for j, v := range vals {
		for i := 0; i < n; i++ {
			if it := v.Item(i); it != nil {
				values[i*k+j] = it
			} else {
				values[i*k+j] = item.Null{}
			}
		}
	}
	objs := item.ObjectsOfShape(shape, values, n)
	out := s.NewCol(n)
	for i := range objs {
		out.AppendItem(&objs[i])
	}
	return out
}

// makeArrays builds one array per row from the body column (nil body means
// the constant empty array): an absent body row yields an empty array, a
// present one a singleton, mirroring [ expr ] over single-valued bodies.
func (s *Scratch) makeArrays(body *Col, n int) *Col {
	out := s.NewCol(n)
	for i := 0; i < n; i++ {
		if body == nil {
			out.AppendItem(item.NewArray(nil))
			continue
		}
		if it := body.Item(i); it != nil {
			out.AppendItem(item.NewArray([]item.Item{it}))
		} else {
			out.AppendItem(item.NewArray(nil))
		}
	}
	return out
}

// call evaluates a scalar builtin row-by-row over single-valued argument
// columns, the generic bridge for whitelisted functions (contains,
// lower-case, ...). Absent argument rows pass the empty sequence, as the
// tuple backend's call iterator does after materialization.
func (s *Scratch) call(fn functions.Func, args []*Col, n int) (*Col, error) {
	out := s.NewCol(n)
	argSeqs := make([][]item.Item, len(args))
	argBufs := make([][1]item.Item, len(args))
	for i := 0; i < n; i++ {
		for k, a := range args {
			if it := a.Item(i); it != nil {
				argBufs[k][0] = it
				argSeqs[k] = argBufs[k][:1]
			} else {
				argSeqs[k] = nil
			}
		}
		res, err := fn.Call(argSeqs)
		if err != nil {
			return nil, err
		}
		switch len(res) {
		case 0:
			out.AppendAbsent()
		case 1:
			out.AppendItem(res[0])
		default:
			return nil, fmt.Errorf("vector: builtin %s returned %d items for one row", fn.Name, len(res))
		}
	}
	return out, nil
}
