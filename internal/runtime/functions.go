package runtime

import (
	"context"
	"os"

	"rumble/internal/compiler"
	"rumble/internal/dfs"
	"rumble/internal/functions"
	"rumble/internal/item"
	"rumble/internal/jparse"
	"rumble/internal/profile"
	"rumble/internal/segment"
	"rumble/internal/spark"
)

// Env is the compile-time environment: the cluster context plus named
// collections available to the collection() function.
type Env struct {
	// Spark is the cluster context; nil restricts execution to local.
	Spark *spark.Context
	// Collections maps collection names to json-lines paths on the
	// storage layer.
	Collections map[string]string
	// InMemory maps collection names to in-memory sequences, useful in
	// tests and examples.
	InMemory map[string][]item.Item
	// SplitSize overrides the storage split size (0 = default).
	SplitSize int64
	// Segments, when non-nil, lets storage-backed scans serve from the
	// columnar segment store: json-file and collection sources ingest (or
	// reuse) a `.segments` sibling of the data and vector pipelines scan
	// decoded column batches through its buffer pool, with zone-map
	// pruning for pushed-down predicates. Sources the store cannot serve
	// fall back to the JSON-Lines paths unchanged.
	Segments *segment.Store
	// NoJoin disables the compiler's static equi-join detection, forcing
	// nested-loop evaluation; only tests set it, to compare the two.
	NoJoin bool
	// Vectorize enables the columnar local backend: the compiler annotates
	// eligible FLWOR pipelines ModeVector and they execute batch-at-a-time
	// (internal/vector) instead of tuple-at-a-time.
	Vectorize bool
	// VerifyPlans runs compiler.Verify over every analyzed module before
	// compiling it, failing compilation with structured diagnostics when a
	// plan invariant is violated. Always on in tests; servers enable it
	// with RUMBLE_VERIFY_PLANS=1.
	VerifyPlans bool
}

// builtinCallIter dispatches a call to the local builtin library,
// materializing argument sequences first.
type builtinCallIter struct {
	localOnly
	fn   functions.Func
	args []Iterator
}

func (b *builtinCallIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	argSeqs := make([][]item.Item, len(b.args))
	for i, a := range b.args {
		seq, err := Materialize(a, dc)
		if err != nil {
			return err
		}
		argSeqs[i] = seq
	}
	out, err := b.fn.Call(argSeqs)
	if err != nil {
		return Errorf("%v", err)
	}
	for _, it := range out {
		if err := yield(it); err != nil {
			return err
		}
	}
	return nil
}

// aggregateIter evaluates count/sum/avg/min/max/exists/empty. When the
// compiler marked the call for pushdown (the argument is cluster-resident),
// the aggregation runs as a Spark action and only the scalar result travels
// back (§5.5 of the paper: "aggregating iterators invoke a Spark count
// action on the child RDD").
type aggregateIter struct {
	localOnly
	name     string
	arg      Iterator
	dflt     Iterator // sum's optional zero value
	pushdown bool     // decided statically by the compiler
}

func (a *aggregateIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	if a.pushdown {
		return a.streamFromRDD(dc, yield)
	}
	if a.name == "exists" || a.name == "empty" {
		// The first item decides an existence test: stop there, as the
		// cluster's Take(1) does, so later items — and their errors — are
		// never evaluated.
		first, err := MaterializeN(a.arg, dc, 1)
		if err != nil {
			return err
		}
		return yield(item.Bool((len(first) > 0) == (a.name == "exists")))
	}
	seq, err := Materialize(a.arg, dc)
	if err != nil {
		return err
	}
	args := [][]item.Item{seq}
	if a.dflt != nil {
		d, err := Materialize(a.dflt, dc)
		if err != nil {
			return err
		}
		args = append(args, d)
	}
	fn, _ := functions.Lookup(a.name)
	out, err := fn.Call(args)
	if err != nil {
		return Errorf("%v", err)
	}
	for _, it := range out {
		if err := yield(it); err != nil {
			return err
		}
	}
	return nil
}

func (a *aggregateIter) streamFromRDD(dc *DynamicContext, yield func(item.Item) error) error {
	rdd, err := a.arg.RDD(dc)
	if err != nil {
		return err
	}
	// Cluster actions below poll the caller's Go context inside their
	// partition tasks, so a cancelled request stops the aggregation.
	rdd = spark.WithCancel(rdd, cancelOf(dc))
	switch a.name {
	case "count":
		n, err := spark.Count(rdd)
		if err != nil {
			return err
		}
		return yield(item.Int(n))
	case "exists":
		first, err := spark.Take(rdd, 1)
		if err != nil {
			return err
		}
		return yield(item.Bool(len(first) > 0))
	case "empty":
		first, err := spark.Take(rdd, 1)
		if err != nil {
			return err
		}
		return yield(item.Bool(len(first) == 0))
	}
	// sum, avg, min and max: every partition folds through the one
	// accumulator and the partials merge in partition order. A partition
	// keeps its fold as it stood before its first error and merges that
	// first, so an error the earlier values provoke wins, as in the
	// left-to-right fold.
	kind, _ := functions.AggregateKind(a.name)
	type partial struct {
		fold functions.Fold
		err  error
	}
	total, err := spark.Aggregate(rdd,
		func() *partial { return &partial{fold: functions.Fold{Kind: kind}} },
		func(p *partial, it item.Item) *partial {
			if p.err == nil {
				p.err = p.fold.Add(it)
			}
			return p
		},
		func(p, later *partial) *partial {
			if p.err == nil {
				p.err = p.fold.Merge(&later.fold)
			}
			if p.err == nil {
				p.err = later.err
			}
			return p
		})
	if err != nil {
		return err
	}
	if total.err != nil {
		return Errorf("%v", total.err)
	}
	if total.fold.N() == 0 && a.dflt != nil {
		return a.dflt.Stream(dc, yield)
	}
	res, err := total.fold.Result()
	if err != nil {
		return Errorf("%v", err)
	}
	if res == nil {
		return nil
	}
	return yield(res)
}

// distinctValuesIter pushes distinct-values down to a shuffle when the
// argument is cluster-resident (the compiler propagates the argument's
// mode to this node).
type distinctValuesIter struct {
	planNode
	arg Iterator
}

func (d *distinctValuesIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	seq, err := Materialize(d.arg, dc)
	if err != nil {
		return err
	}
	for _, it := range functions.DistinctValues(seq) {
		if err := yield(it); err != nil {
			return err
		}
	}
	return nil
}

func (d *distinctValuesIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	rdd, err := d.arg.RDD(dc)
	if err != nil {
		return nil, err
	}
	return spark.Distinct(rdd, func(it item.Item) string {
		return string(it.AppendJSON(nil))
	}), nil
}

// scanInput is what one evaluation of a storage scan reads, resolved once:
// the segment dataset when the store serves the source (ingest is non-nil
// when this very resolution paid the first touch), otherwise the source's
// JSON-Lines splits. op is the profiled source's operator, into which the
// vector backend's raw scan records its rows, one batch and its wall time.
type scanInput struct {
	ds     *segment.Dataset
	ingest *segment.IngestStats
	splits []dfs.Split
	op     *profile.Op
}

// storageScan is implemented by the scans that may read storage —
// json-file, collection() and the profiling wrapper around either. The
// vector backend asks once per evaluation; storage=false means the input
// is not storage this time (an in-memory collection) and its items stream
// through Stream instead.
type storageScan interface {
	resolveScan(dc *DynamicContext) (in scanInput, storage bool, err error)
}

// readSplits is the one local JSON-Lines read loop: it streams the records
// of splits in order, polling ctx every 256 records. A record is valid only
// until its yield returns.
func readSplits(ctx context.Context, splits []dfs.Split, yield func(line []byte) error) error {
	var n int
	for _, s := range splits {
		if err := dfs.ReadLines(s, nil, func(line []byte) error {
			if ctx != nil {
				if n++; n&255 == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
			}
			return yield(line)
		}); err != nil {
			return err
		}
	}
	return nil
}

// jsonFileIter reads a json-lines dataset from the storage layer as an RDD
// of items, one streaming parse per split (the json-file() function of
// §5.7). The optional second argument is a minimum partition count.
//
// scan is the compiler's column projection (Info.ScanPlans) when the scan
// heads a FLWOR that reads its variable only through literal-key lookups:
// the decoders then build just those fields of every record and validate
// the rest. nil decodes whole records.
type jsonFileIter struct {
	planNode
	env  *Env
	path Iterator
	min  Iterator // optional minimum partitions
	scan *compiler.ScanPlan
}

// newDecoder returns a decoder for one sequential pass over (a split of)
// the dataset: one per Stream, one per partition task.
func (j *jsonFileIter) newDecoder() *jparse.Decoder {
	if j.scan != nil {
		return jparse.NewProjectingDecoder(j.scan.Columns)
	}
	return jparse.NewDecoder()
}

func (j *jsonFileIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	splits, err := j.splits(dc)
	if err != nil {
		return err
	}
	dec := j.newDecoder()
	return readSplits(dc.GoContext(), splits, func(line []byte) error {
		it, perr := dec.Decode(line)
		if perr != nil {
			return Errorf("json-file: %v", perr)
		}
		return yield(it)
	})
}

// resolveScan implements storageScan. The path resolves once: when the
// environment carries a segment store that can serve it, the scan reads
// the source's `.segments` sibling (ingesting it on first touch); a source
// the store cannot serve now — unparseable data, or a stale store being
// rebuilt in the background — scans its splits, whose read surfaces any
// real source error.
func (j *jsonFileIter) resolveScan(dc *DynamicContext) (scanInput, bool, error) {
	path, err := j.resolvePath(dc)
	if err != nil {
		return scanInput{}, true, err
	}
	if j.env.Segments != nil {
		if ds, ingest, err := j.env.Segments.OpenStats(path); err == nil && ds != nil {
			return scanInput{ds: ds, ingest: ingest}, true, nil
		}
	}
	splits, err := j.splitsOf(dc, path)
	return scanInput{splits: splits}, true, err
}

func (j *jsonFileIter) resolvePath(dc *DynamicContext) (string, error) {
	pseq, err := Materialize(j.path, dc)
	if err != nil {
		return "", err
	}
	pit, err := exactlyOneAtomic(pseq, "json-file path")
	if err != nil {
		return "", err
	}
	path, err := item.StringValue(pit)
	if err != nil {
		return "", Errorf("%v", err)
	}
	return path, nil
}

func (j *jsonFileIter) splits(dc *DynamicContext) ([]dfs.Split, error) {
	path, err := j.resolvePath(dc)
	if err != nil {
		return nil, err
	}
	return j.splitsOf(dc, path)
}

// splitsOf lists the splits of the resolved path, honouring the optional
// minimum partition count.
func (j *jsonFileIter) splitsOf(dc *DynamicContext, path string) ([]dfs.Split, error) {
	splitSize := j.env.SplitSize
	if j.min != nil {
		mseq, err := Materialize(j.min, dc)
		if err != nil {
			return nil, err
		}
		mit, err := exactlyOneAtomic(mseq, "json-file partition count")
		if err != nil {
			return nil, err
		}
		mi, err := item.CastToInteger(mit)
		if err != nil {
			return nil, Errorf("json-file: %v", err)
		}
		if n := int64(mi.(item.Int)); n > 0 {
			if info, statErr := statSize(path); statErr == nil && info > 0 {
				splitSize = info/n + 1
			}
		}
	}
	splits, err := dfs.ListSplits(path, splitSize)
	if err != nil {
		return nil, Errorf("json-file: %v", err)
	}
	return splits, nil
}

func (j *jsonFileIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	splits, err := j.splits(dc)
	if err != nil {
		return nil, err
	}
	sc := j.env.Spark
	ctx := dc.GoContext()
	return spark.NewRDD(sc, len(splits), "json-file", func(p int, yield func(item.Item) error) error {
		var n int64
		defer func() { sc.AddRecordsRead(n) }()
		dec := j.newDecoder()
		return dfs.ReadLines(splits[p], func(blocks int) { sc.SimulateIO(blocks) }, func(line []byte) error {
			// Scans dominate task time, so the cancellation checkpoint
			// lives in the parse loop itself, not just at stage edges.
			if ctx != nil && n&255 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			it, perr := dec.Decode(line)
			if perr != nil {
				return Errorf("json-file: %v", perr)
			}
			n++
			return yield(it)
		})
	}), nil
}

// parallelizeIter distributes a locally computed sequence over the cluster,
// the JSONiq wrapper for Spark's parallelize() (§5.7).
type parallelizeIter struct {
	planNode
	env   *Env
	child Iterator
	parts Iterator // optional partition count
}

func (p *parallelizeIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	// Local mode: parallelize is the identity on the logical layer.
	return p.child.Stream(dc, yield)
}

func (p *parallelizeIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	seq, err := Materialize(p.child, dc)
	if err != nil {
		return nil, err
	}
	parts := 0
	if p.parts != nil {
		pseq, err := Materialize(p.parts, dc)
		if err != nil {
			return nil, err
		}
		pit, err := exactlyOneAtomic(pseq, "parallelize partition count")
		if err != nil {
			return nil, err
		}
		pi, err := item.CastToInteger(pit)
		if err != nil {
			return nil, Errorf("parallelize: %v", err)
		}
		parts = int(pi.(item.Int))
	}
	return spark.Parallelize(p.env.Spark, seq, parts), nil
}

// collectionIter resolves collection(name) against the environment's
// registered collections: a storage path or an in-memory sequence.
type collectionIter struct {
	planNode
	env  *Env
	name Iterator
	scan *compiler.ScanPlan // column projection, applied when the name resolves to storage
}

func (c *collectionIter) resolve(dc *DynamicContext) (Iterator, error) {
	nseq, err := Materialize(c.name, dc)
	if err != nil {
		return nil, err
	}
	nit, err := exactlyOneAtomic(nseq, "collection name")
	if err != nil {
		return nil, err
	}
	name, err := item.StringValue(nit)
	if err != nil {
		return nil, Errorf("%v", err)
	}
	// The resolved source inherits this node's statically assigned mode.
	if path, ok := c.env.Collections[name]; ok {
		return &jsonFileIter{planNode: c.planNode, env: c.env, path: newLiteral(item.Str(path)), scan: c.scan}, nil
	}
	if seq, ok := c.env.InMemory[name]; ok {
		return &parallelizeIter{planNode: c.planNode, env: c.env, child: &constSeqIter{seq: seq}}, nil
	}
	return nil, Errorf("collection %q is not registered", name)
}

func (c *collectionIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	it, err := c.resolve(dc)
	if err != nil {
		return err
	}
	return it.Stream(dc, yield)
}

// resolveScan implements storageScan for the source the name resolves to:
// a registered path scans as json-file does, an in-memory sequence is not
// storage.
func (c *collectionIter) resolveScan(dc *DynamicContext) (scanInput, bool, error) {
	it, err := c.resolve(dc)
	if err != nil {
		return scanInput{}, true, err
	}
	if src, ok := it.(storageScan); ok {
		return src.resolveScan(dc)
	}
	return scanInput{}, false, nil
}

func (c *collectionIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	it, err := c.resolve(dc)
	if err != nil {
		return nil, err
	}
	return it.RDD(dc)
}

// constSeqIter yields a fixed sequence (used for bound collections).
type constSeqIter struct {
	localOnly
	seq []item.Item
}

func (c *constSeqIter) Stream(_ *DynamicContext, yield func(item.Item) error) error {
	//rumble:ctxpoll-ok bounded: emits a fixed already-bound sequence; downstream consumers checkpoint
	for _, it := range c.seq {
		if err := yield(it); err != nil {
			return err
		}
	}
	return nil
}

// udf is a compiled user-declared function.
type udf struct {
	name   string
	params []string
	body   Iterator // filled after compilation to allow recursion
}

// udfCallIter invokes a user-declared function: parameters are materialized
// and bound in a fresh context rooted at the global scope (JSONiq functions
// see global variables but not the caller's locals).
type udfCallIter struct {
	localOnly
	fn      *udf
	args    []Iterator
	globals func() *DynamicContext
}

func (u *udfCallIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	vars := make(map[string][]item.Item, len(u.args))
	for i, a := range u.args {
		seq, err := Materialize(a, dc)
		if err != nil {
			return err
		}
		vars[u.fn.params[i]] = seq
	}
	fdc := u.globals().BindVars(vars)
	return u.fn.body.Stream(fdc, yield)
}

// statSize returns the total byte size of a file or of the part files in a
// directory, used to honor json-file's minimum-partition hint.
func statSize(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if !info.IsDir() {
		return info.Size(), nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
