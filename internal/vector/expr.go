package vector

import (
	"rumble/internal/functions"
	"rumble/internal/item"
)

// Batch is one batch of pipeline rows: the pipeline's variable columns by
// slot. Unbound slots are nil until a let (or the scan) fills them. On a
// segment morsel whose pipeline reads the scan variable whole, Src holds
// the segment's decoded lanes: slot 0 stays nil until a RowsExpr assembles
// the rows that are still alive by then. Scratch is where the columns
// evaluated over the batch, and the batches compacted from it, come from
// (nil: the heap).
type Batch struct {
	N       int
	Cols    []*Col
	Src     RowSource
	Scratch *Scratch
}

// RowSource assembles whole scan rows from decoded lanes, by row index
// within the source (segment.ColumnSet implements it).
type RowSource interface {
	Row(i int) (item.Item, error)
}

// Compact restricts every bound column to the kept rows.
func (b *Batch) Compact(keep []bool, kept int) *Batch {
	nb := b.Scratch.Batch(kept, len(b.Cols))
	nb.Src = b.Src
	for i, c := range b.Cols {
		if c != nil {
			nb.Cols[i] = b.Scratch.Compact(c, keep, kept)
		}
	}
	return nb
}

// ScanRow assembles batch row i from Src, through the row index the hidden
// slot rowSlot carries.
func (b *Batch) ScanRow(rowSlot, i int) (item.Item, error) {
	return b.Src.Row(int(b.Cols[rowSlot].Ints[i]))
}

// KernelError is a dynamic error a kernel raised on row values — a type
// mismatch, an overflow, a failed builtin — as opposed to a failure to
// assemble the rows themselves, which an Expr returns unwrapped.
type KernelError struct{ Err error }

func (e *KernelError) Error() string { return e.Err.Error() }

func kernelErr(err error) error {
	if err == nil {
		return nil
	}
	return &KernelError{Err: err}
}

// Expr is a compiled scalar expression: one column per batch. ext holds
// the evaluation's free variables, resolved once and broadcast as
// constant columns.
type Expr interface {
	Eval(ext []*Col, b *Batch) (*Col, error)
}

// LitExpr broadcasts a literal; the constant column is immutable and
// shared across evaluations.
type LitExpr struct{ Col *Col }

func (e *LitExpr) Eval([]*Col, *Batch) (*Col, error) { return e.Col, nil }

// SlotExpr reads a batch slot.
type SlotExpr struct{ Slot int }

func (e *SlotExpr) Eval(_ []*Col, b *Batch) (*Col, error) { return b.Cols[e.Slot], nil }

// RowsExpr reads the scan variable whole (slot 0). Raw and in-memory
// morsels fill the slot from their items up front. A segment morsel leaves
// it nil and carries each row's index within the segment in RowSlot — a
// hidden column that rides filter compaction and join expansion like any
// other — so the first read assembles items from the lanes for just the
// rows that survived until then.
type RowsExpr struct{ RowSlot int }

func (e *RowsExpr) Eval(_ []*Col, b *Batch) (*Col, error) {
	if b.Cols[0] == nil {
		scan := b.Scratch.NewCol(b.N)
		for i := 0; i < b.N; i++ {
			it, err := b.ScanRow(e.RowSlot, i)
			if err != nil {
				return nil, err
			}
			scan.AppendItem(it)
		}
		b.Cols[0] = scan
	}
	return b.Cols[0], nil
}

// ExtExpr reads a resolved free-variable constant.
type ExtExpr struct{ Idx int }

func (e *ExtExpr) Eval(ext []*Col, _ *Batch) (*Col, error) { return ext[e.Idx], nil }

// LookupExpr is a literal-key object lookup.
type LookupExpr struct {
	In  Expr
	Key string
}

func (e *LookupExpr) Eval(ext []*Col, b *Batch) (*Col, error) {
	in, err := e.In.Eval(ext, b)
	if err != nil {
		return nil, err
	}
	return b.Scratch.Lookup(in, e.Key, b.N), nil
}

// CmpExpr is a value comparison.
type CmpExpr struct {
	Op   CmpOp
	L, R Expr
}

func (e *CmpExpr) Eval(ext []*Col, b *Batch) (*Col, error) {
	l, r, err := evalTwo(ext, b, e.L, e.R)
	if err != nil {
		return nil, err
	}
	out, err := b.Scratch.compare(l, r, b.N, e.Op)
	return out, kernelErr(err)
}

// ArithExpr is binary arithmetic.
type ArithExpr struct {
	Op   item.ArithOp
	L, R Expr
}

func (e *ArithExpr) Eval(ext []*Col, b *Batch) (*Col, error) {
	l, r, err := evalTwo(ext, b, e.L, e.R)
	if err != nil {
		return nil, err
	}
	out, err := b.Scratch.arith(l, r, b.N, e.Op)
	return out, kernelErr(err)
}

func evalTwo(ext []*Col, b *Batch, l, r Expr) (*Col, *Col, error) {
	lc, err := l.Eval(ext, b)
	if err != nil {
		return nil, nil, err
	}
	rc, err := r.Eval(ext, b)
	if err != nil {
		return nil, nil, err
	}
	return lc, rc, nil
}

// UnaryExpr is unary plus/minus.
type UnaryExpr struct {
	Minus bool
	In    Expr
}

func (e *UnaryExpr) Eval(ext []*Col, b *Batch) (*Col, error) {
	in, err := e.In.Eval(ext, b)
	if err != nil {
		return nil, err
	}
	out, err := b.Scratch.unary(in, b.N, e.Minus)
	return out, kernelErr(err)
}

// LogicExpr is and/or over effective boolean values. The right operand
// only runs on the rows the left operand leaves undecided — evaluated on a
// compacted sub-batch — so its errors surface exactly where the tuple
// backend's short-circuiting would evaluate it.
type LogicExpr struct {
	And  bool
	L, R Expr
}

func (e *LogicExpr) Eval(ext []*Col, b *Batch) (*Col, error) {
	lc, err := e.L.Eval(ext, b)
	if err != nil {
		return nil, err
	}
	lb, keep := b.Scratch.Bools(b.N), b.Scratch.Bools(b.N)
	kept := 0
	for i := 0; i < b.N; i++ {
		lb[i] = lc.EBV(i)
		// and: a false left decides false; or: a true left decides true.
		if lb[i] != e.And {
			continue
		}
		keep[i] = true
		kept++
	}
	out := b.Scratch.NewCol(b.N)
	if kept == 0 {
		for i := 0; i < b.N; i++ {
			out.AppendBool(lb[i])
		}
		return out, nil
	}
	rc, err := e.R.Eval(ext, b.Compact(keep, kept))
	if err != nil {
		return nil, err
	}
	j := 0
	for i := 0; i < b.N; i++ {
		if !keep[i] {
			out.AppendBool(lb[i])
			continue
		}
		out.AppendBool(rc.EBV(j))
		j++
	}
	return out, nil
}

// ObjectExpr is an object constructor with literal keys: every object it
// builds shares Shape, whose i-th key Vals[i] gives the value of.
type ObjectExpr struct {
	Shape *item.Shape
	Vals  []Expr
}

func (e *ObjectExpr) Eval(ext []*Col, b *Batch) (*Col, error) {
	cols, err := evalAll(ext, b, e.Vals)
	if err != nil {
		return nil, err
	}
	return b.Scratch.makeObjects(e.Shape, cols, b.N), nil
}

func evalAll(ext []*Col, b *Batch, es []Expr) ([]*Col, error) {
	cols := b.Scratch.Cols(len(es))
	for i, e := range es {
		c, err := e.Eval(ext, b)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return cols, nil
}

// ArrayExpr is a square-bracket array constructor (nil Body = empty array).
type ArrayExpr struct{ Body Expr }

func (e *ArrayExpr) Eval(ext []*Col, b *Batch) (*Col, error) {
	if e.Body == nil {
		return b.Scratch.makeArrays(nil, b.N), nil
	}
	c, err := e.Body.Eval(ext, b)
	if err != nil {
		return nil, err
	}
	return b.Scratch.makeArrays(c, b.N), nil
}

// CallExpr is a whitelisted scalar builtin.
type CallExpr struct {
	Fn   functions.Func
	Args []Expr
}

func (e *CallExpr) Eval(ext []*Col, b *Batch) (*Col, error) {
	cols, err := evalAll(ext, b, e.Args)
	if err != nil {
		return nil, err
	}
	out, err := b.Scratch.call(e.Fn, cols, b.N)
	return out, kernelErr(err)
}

// ExistsExpr finalizes an existence test over the grand count in slot 0:
// Bool(n == 0) for empty, Bool(n > 0) for exists.
type ExistsExpr struct{ Empty bool }

func (e *ExistsExpr) Eval(_ []*Col, b *Batch) (*Col, error) {
	in := b.Cols[0]
	out := b.Scratch.NewCol(b.N)
	for i := 0; i < b.N; i++ {
		n, _ := in.Item(i).(item.Int)
		out.AppendBool((n == 0) == e.Empty)
	}
	return out, nil
}
