package runtime

import (
	"time"

	"rumble/internal/compiler"
	"rumble/internal/item"
	"rumble/internal/spark"
)

// profiledIter instruments one plan operator (a scan source or an
// aggregate): evaluations whose DynamicContext carries a profile record
// rows out, batches and inclusive wall time under opID; all other
// evaluations pay a single nil check per Stream/RDD call.
//
// The wrapper is transparent to every runtime capability of the wrapped
// iterator: Mode delegates, RDD wraps the cluster pipeline with
// spark.Observe (per-partition counts recorded from executor tasks),
// and resolveScan forwards to a storage scan so the vector backend's
// segment and raw scans still engage through the wrapper.
type profiledIter struct {
	inner Iterator
	opID  int
}

func (p *profiledIter) Mode() compiler.Mode { return p.inner.Mode() }

func (p *profiledIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	op := dc.Profile().Op(p.opID)
	if op == nil {
		return p.inner.Stream(dc, yield)
	}
	start := time.Now()
	var rows int64
	err := p.inner.Stream(dc, func(it item.Item) error {
		rows++
		return yield(it)
	})
	op.AddRows(rows)
	op.AddBatches(1)
	op.AddWall(time.Since(start))
	return err
}

func (p *profiledIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	rdd, err := p.inner.RDD(dc)
	if err != nil {
		return nil, err
	}
	op := dc.Profile().Op(p.opID)
	if op == nil {
		return rdd, nil
	}
	return spark.Observe(rdd, func(rows int64, wall time.Duration) {
		op.AddRows(rows)
		op.AddBatches(1)
		op.AddWall(wall)
	}), nil
}

// resolveScan implements storageScan by forwarding to the wrapped source
// and handing over this operator: the vector backend's raw scan records its
// records, one batch and its wall time there, as Stream would. A segment
// scan records per morsel on its scan line instead (processMorsel), and an
// input that is not storage streams through Stream.
func (p *profiledIter) resolveScan(dc *DynamicContext) (scanInput, bool, error) {
	src, ok := p.inner.(storageScan)
	if !ok {
		return scanInput{}, false, nil
	}
	in, storage, err := src.resolveScan(dc)
	in.op = dc.Profile().Op(p.opID)
	return in, storage, err
}

// profiledClause instruments one FLWOR clause of the tuple pipeline,
// counting the tuples it emits downstream. Wall time is inclusive: it
// covers the wrapped clause, its upstream chain and the downstream
// consumption driven through yield — explain-analyze renders it as such.
type profiledClause struct {
	inner clauseEval
	opID  int
}

func (p *profiledClause) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	op := dc.Profile().Op(p.opID)
	if op == nil {
		return p.inner.streamTuples(dc, yield)
	}
	start := time.Now()
	var rows int64
	err := p.inner.streamTuples(dc, func(t tuple) error {
		rows++
		return yield(t)
	})
	op.AddRows(rows)
	op.AddBatches(1)
	op.AddWall(time.Since(start))
	return err
}
