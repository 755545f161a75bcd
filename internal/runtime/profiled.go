package runtime

import (
	"time"

	"rumble/internal/compiler"
	"rumble/internal/item"
	"rumble/internal/segment"
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
// and StreamRaw forwards to a raw-capable source so the vector
// backend's byte-level scan handoff still engages through the wrapper.
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

// StreamRaw implements rawScanner by forwarding to the wrapped source.
// handled=false when the source is not raw-capable for this evaluation,
// exactly as if the wrapper were absent; raw rows count once here (the
// decoded-item Stream path is not taken when raw scanning engages).
func (p *profiledIter) StreamRaw(dc *DynamicContext, yield func(line []byte, bytes int64) error) (bool, error) {
	raw, ok := p.inner.(rawScanner)
	if !ok {
		return false, nil
	}
	op := dc.Profile().Op(p.opID)
	if op == nil {
		return raw.StreamRaw(dc, yield)
	}
	start := time.Now()
	var rows int64
	handled, err := raw.StreamRaw(dc, func(line []byte, n int64) error {
		rows++
		return yield(line, n)
	})
	if handled {
		op.AddRows(rows)
		op.AddBatches(1)
		op.AddWall(time.Since(start))
	}
	return handled, err
}

// SegmentDataset implements segmentSource by forwarding to the wrapped
// source, so a segment-backed scan still engages through the wrapper.
// Scan rows are profiled per batch by the vector backend itself
// (processMorsel records into the scan operator, and scanMorsels notes a
// first-touch ingest there), so nothing is recorded here.
func (p *profiledIter) SegmentDataset(dc *DynamicContext) (*segment.Dataset, *segment.IngestStats) {
	if src, ok := p.inner.(segmentSource); ok {
		return src.SegmentDataset(dc)
	}
	return nil, nil
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
