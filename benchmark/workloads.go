package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rumble"
	"rumble/internal/segment"
)

// workload is one set of inputs the benchmark runs. The whys are repeated
// in BENCHMARK.json and argued in README.md.
type workload struct {
	name  string
	setup func(rp runPlan, dir string) (*bench, error)
}

var workloads = []workload{
	{"raw_json_cold", setupRawJSONCold},
	{"segment_hot", setupSegmentHot},
	{"segment_cold", setupSegmentCold},
	{"serve_mixed", setupServeMixed},
	{"ingest_write", setupIngestWrite},
}

// sizes are the object counts of each workload's inputs, fixed after
// sizing on the 2-core reference box so that an op takes 55 to 80 ms and a
// 20 s pass holds at least 200 of them (README.md, "Workloads").
type sizes struct {
	confusion int // raw_json_cold, confusion file
	redditRaw int // raw_json_cold, Reddit file
	hot       int // segment_hot and serve_mixed, Reddit file
	// hotRounds is how many rounds one segment_hot op runs. The pool caps the
	// file at about 25k objects, where a round takes 10 ms and every third
	// one meets a garbage collection: round times are bimodal and their
	// median jumps between the modes with the machine's mood. Five rounds
	// hold one or two collections each, like the other workloads' ops.
	hotRounds  int
	cold       int // segment_cold
	ingest     int // ingest_write
	warmRounds int // checked ops run in set-up before the first timed op
}

var (
	fullSizes  = sizes{confusion: 3200, redditRaw: 2000, hot: 24576, hotRounds: 5, cold: 6144, ingest: 5120, warmRounds: 3}
	quickSizes = sizes{confusion: 300, redditRaw: 200, hot: 4608, hotRounds: 2, cold: 1024, ingest: 512, warmRounds: 1}
)

// scanSplit is the storage split size of every engine the benchmark
// builds: small enough that the small files still fan out over the workers.
const scanSplit = 256 << 10

// digest identifies a query result: item count, serialized bytes and an
// FNV-1a checksum of the serialized items. The checksum follows emit order
// only for queries whose text fixes one (order by).
type digest struct {
	count int
	bytes int64
	sum   uint64
}

func (d *digest) add(b []byte, ordered bool) {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	d.count++
	d.bytes += int64(len(b))
	if ordered {
		d.sum = d.sum*1099511628211 + h
	} else {
		d.sum += h
	}
}

// query is one text of a workload's round with its oracle.
type query struct {
	name    string
	text    string
	ordered bool
	// write runs the statement through Statement.WriteTo and checks the
	// part files instead of collecting.
	write bool
	want  digest
}

// The §6.1 queries over the confusion data set (Fig. 11), verbatim from the
// paper's formulation, and the Reddit queries of Fig. 14 and of the
// type-drifting fields.
func rawQueries(confusion, reddit string) []query {
	return []query{
		{name: "filter", text: fmt.Sprintf(
			`count(for $o in json-file(%q) where $o.guess eq $o.target return $o)`, confusion)},
		{name: "group", text: fmt.Sprintf(`
			for $o in json-file(%q)
			group by $c := $o.country, $t := $o.target
			return $c || "," || $t || "," || string(count($o))`, confusion)},
		{name: "sort", ordered: true, text: fmt.Sprintf(`
			for $o in json-file(%q)
			where $o.guess eq $o.target
			order by $o.target ascending, $o.country descending, $o.date descending
			count $c
			where $c le 10
			return $o.target || "," || $o.country || "," || $o.date`, confusion)},
		{name: "reddit_filter", text: fmt.Sprintf(
			`count(for $o in json-file(%q) where $o.score gt 1500 and contains($o.body, "data") return $o)`, reddit)},
		// edited is false or a timestamp, gildings a number or an object,
		// media.dims an optional nested array.
		{name: "reddit_messy", ordered: true, text: fmt.Sprintf(`
			for $o in json-file(%q)
			let $gild := if ($o.gildings instance of object)
			             then $o.gildings.gid_1 + $o.gildings.gid_2
			             else $o.gildings
			where $o.edited instance of integer
			group by $s := $o.subreddit
			order by $s
			return {"subreddit": $s, "edited": count($o), "gilded": sum($gild), "dims": count($o.media.dims[])}`, reddit)},
	}
}

// segmentQueries is the round of the segment workloads. cutoff is the
// created_utc value that starts the newest 5% of the file.
func segmentQueries(reddit, subreddits string, cutoff int64) []query {
	return []query{
		{name: "seg_groupagg", text: fmt.Sprintf(`
			for $o in json-file(%q)
			group by $s := $o.subreddit
			return {"subreddit": $s, "n": count($o), "score": sum($o.score)}`, reddit)},
		{name: "seg_strpred", text: fmt.Sprintf(`
			for $o in json-file(%q)
			where $o.subreddit eq "programming" and $o.score gt 1000
			return {"id": $o.id, "score": $o.score}`, reddit)},
		{name: "seg_pruned", text: fmt.Sprintf(`
			for $o in json-file(%q)
			where $o.created_utc ge %d
			group by $s := $o.subreddit
			return {"subreddit": $s, "n": count($o), "score": sum($o.score)}`, reddit, cutoff)},
		{name: "seg_topk", ordered: true, text: fmt.Sprintf(`
			for $o in json-file(%q)
			order by $o.score descending, $o.id ascending
			count $r
			where $r le 10
			return {"id": $o.id, "score": $o.score}`, reddit)},
		{name: "seg_wholerow", text: fmt.Sprintf(`
			for $o in json-file(%q) where $o.score gt 1880 return $o`, reddit)},
		{name: "seg_join", text: fmt.Sprintf(`
			for $o in json-file(%q)
			for $s in json-file(%q)
			where $o.subreddit eq $s.name and $o.score gt 1800
			return {"id": $o.id, "rank": $s.rank, "topic": $s.topic}`, reddit, subreddits)},
	}
}

func engineConfig(workers int, vector bool) rumble.Config {
	return rumble.Config{Parallelism: workers, Executors: workers, SplitSize: scanSplit,
		Vectorize: vector, Segments: vector}
}

// evaluate runs one stream query: text in, every result item serialized
// into a reused buffer, counted and checksummed. Evaluation goes through
// CollectProfiled (what Engine.Query and the server use) because Stream on a
// DataFrame-mode statement runs the local tuple pipeline and never reaches
// spark. prof is non-nil only in the traced pass.
func evaluate(t *tracer, parent, opID int, eng *rumble.Engine, q *query, buf *[]byte, a *acc) (digest, error) {
	var got digest
	s := t.begin("frontend.compile", parent, opID)
	st, err := eng.Compile(q.text)
	t.end(s)
	if err != nil {
		return got, err
	}
	var prof *rumble.Profile
	if t != nil {
		prof = st.NewProfile()
	}
	s = t.begin("runtime.execute", parent, opID)
	start := time.Now()
	items, err := st.CollectProfiled(context.Background(), 0, prof)
	execMS := float64(time.Since(start)) / 1e6
	t.end(s)
	if err != nil {
		return got, err
	}
	s = t.begin("item.serialize", parent, opID)
	for _, it := range items {
		*buf = it.AppendJSON((*buf)[:0])
		got.add(*buf, q.ordered)
	}
	t.end(s)
	a.executeMS += execMS
	a.sum.resultBytes += got.bytes
	if prof != nil {
		snap := prof.Snapshot()
		a.sum.busyNS += int64(snap.BusyMS * 1e6)
		a.sum.waitNS += int64(snap.WaitMS * 1e6)
		t.attachProfile(parent, snap)
	}
	return got, nil
}

// writeOut runs a write query: Statement.WriteTo into dir. The caller
// checks the parts afterwards, outside the op's time.
func writeOut(t *tracer, parent, opID int, eng *rumble.Engine, q *query, dir string) error {
	s := t.begin("frontend.compile", parent, opID)
	st, err := eng.Compile(q.text)
	t.end(s)
	if err != nil {
		return err
	}
	s = t.begin("dfs.write", parent, opID)
	defer t.end(s)
	return st.WriteTo(dir)
}

// readParts digests the lines of a written directory of part files.
func readParts(dir string) (digest, error) {
	var got digest
	err := scanLines(dir, func(line []byte) error {
		got.add(line, false)
		return nil
	})
	return got, err
}

// roundBench is the shape the four library workloads share: one op is
// rounds passes (one where unset) over a fixed query list on an engine that
// is either long-lived or built fresh for the op.
type roundBench struct {
	queries []query
	rounds  int
	// engine returns the op's engine.
	engine func() *rumble.Engine
	// beforeOp is part of the op: ingest_write removes the segments here.
	beforeOp func() error
	outDir   string // WriteTo target of write queries
	buf      []byte
}

func (rb *roundBench) op(t *tracer, _, opID int, a *acc) (time.Duration, bool) {
	ok := true
	start := time.Now()
	root := t.begin("op", -1, opID)
	if rb.beforeOp != nil {
		if err := rb.beforeOp(); err != nil {
			ok = false
		}
	}
	eng := rb.engine()
	c0 := engineCounters(eng)
	var written *query // its parts are checked after the op, outside its time
	for i := 0; i < max(rb.rounds, 1)*len(rb.queries); i++ {
		q := &rb.queries[i%len(rb.queries)]
		before := engineCounters(eng)
		qStart := time.Now()
		qs := t.begin("q_"+q.name, root, opID)
		if q.write {
			if err := writeOut(t, qs, opID, eng, q, rb.outDir); err != nil {
				ok = false
			}
			a.writeMS += float64(time.Since(qStart)) / 1e6
			written = q
		} else if got, err := evaluate(t, qs, opID, eng, q, &rb.buf, a); err != nil || got != q.want {
			ok = false
		}
		t.end(qs)
		a.qMS[q.name] = append(a.qMS[q.name], float64(time.Since(qStart))/1e6)
		a.qSkipped[q.name] += engineCounters(eng).segSkipped - before.segSkipped
	}
	c1 := engineCounters(eng)
	t.end(root)
	dur := time.Since(start)
	a.sum.addDelta(c0, c1)
	if c1.misses == c0.misses {
		a.opsNoMiss++
	}
	a.opMS += float64(dur) / 1e6
	if written != nil {
		got, err := readParts(rb.outDir)
		a.sum.writeBytes += got.bytes + int64(got.count) // a newline per line
		if err != nil || got != written.want || os.RemoveAll(rb.outDir) != nil {
			ok = false
		}
	}
	return dur, ok
}

// oracle fills in every query's expected digest from a default-config
// engine over the raw files: no vectorization, no segments.
func oracle(queries []query, outDir string) error {
	eng := rumble.New(rumble.Config{})
	var buf []byte
	for i := range queries {
		q := &queries[i]
		var err error
		if q.write {
			if err = writeOut(nil, -1, 0, eng, q, outDir); err == nil {
				q.want, err = readParts(outDir)
			}
			if rmErr := os.RemoveAll(outDir); err == nil {
				err = rmErr
			}
		} else {
			q.want, err = evaluate(nil, -1, 0, eng, q, &buf, newAcc())
		}
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.name, err)
		}
		if q.want.count == 0 {
			return fmt.Errorf("oracle %s: empty result, the query checks nothing", q.name)
		}
	}
	return nil
}

// warm runs checked rounds before the first timed op, so caches fill and
// lazy set-up finishes inside setup_s, and fails set-up on a wrong result.
func warm(b *bench, rounds int) error {
	a := newAcc()
	for i := 0; i < rounds; i++ {
		for c := 0; c < b.clients; c++ {
			if _, ok := b.op(nil, c, i, a); !ok {
				return fmt.Errorf("warm-up op %d returned a wrong result", i)
			}
		}
	}
	return nil
}

// requireVector fails set-up unless every query compiles to the columnar
// backend: a segment workload that silently fell back would measure the
// wrong layers.
func requireVector(eng *rumble.Engine, queries []query) error {
	for _, q := range queries {
		st, err := eng.Compile(q.text)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		if st.Mode() != "Vector" {
			return fmt.Errorf("%s compiles to Mode()=%s, want Vector", q.name, st.Mode())
		}
	}
	return nil
}

func setupRawJSONCold(rp runPlan, dir string) (*bench, error) {
	confusion := filepath.Join(dir, "confusion.jsonl")
	reddit := filepath.Join(dir, "reddit.jsonl")
	if err := writeConfusion(confusion, rp.sizes.confusion, rp.seed); err != nil {
		return nil, err
	}
	facts, err := writeReddit(reddit, rp.sizes.redditRaw, rp.seed+1)
	if err != nil {
		return nil, err
	}
	queries := rawQueries(confusion, reddit)
	if err := oracle(queries, ""); err != nil {
		return nil, err
	}
	// The cheap closed form: the filter counts a subset of the file.
	if queries[0].want.count != 1 {
		return nil, fmt.Errorf("filter returned %d items, want 1", queries[0].want.count)
	}
	cfg := engineConfig(rp.workers, false)
	rb := &roundBench{queries: queries, engine: func() *rumble.Engine { return rumble.New(cfg) }}
	b := &bench{
		clients: 1, op: rb.op, close: func() {},
		redditPath: reddit, confusionPath: confusion, queries: queries, engineConfig: cfg,
		info: map[string]any{"confusion_objects": rp.sizes.confusion, "reddit_objects": facts.rows,
			"reddit_bytes": facts.bytes, "engine": "fresh per op, default backends"},
		claims: func(a *acc, _ int) error {
			if a.sum.segRead != 0 || a.sum.morsels != 0 {
				return fmt.Errorf("raw_json_cold touched the segment or vector layer: segments_read=%d vector_morsels=%d",
					a.sum.segRead, a.sum.morsels)
			}
			return nil
		},
	}
	return b, warm(b, rp.sizes.warmRounds)
}

// segmentData writes the sorted Reddit file and the join's build side,
// pre-ingests the Reddit segments and computes the round's oracle.
func segmentData(dir string, n int, seed int64) (string, redditFacts, []query, error) {
	reddit := filepath.Join(dir, "reddit.jsonl")
	subreddits := filepath.Join(dir, "subreddits.jsonl")
	facts, err := writeReddit(reddit, n, seed+1)
	if err != nil {
		return "", facts, nil, err
	}
	if err := writeSubreddits(subreddits); err != nil {
		return "", facts, nil, err
	}
	if err := segment.Ingest(reddit); err != nil {
		return "", facts, nil, err
	}
	queries := segmentQueries(reddit, subreddits, facts.created[n*95/100])
	if err := oracle(queries, ""); err != nil {
		return "", facts, nil, err
	}
	// Closed form beside the oracle: whole rows with score > 1880.
	if got, want := queries[4].want.count, facts.scoresAbove(1880); got != want {
		return "", facts, nil, fmt.Errorf("seg_wholerow oracle has %d rows, the generated file has %d", got, want)
	}
	return reddit, facts, queries, nil
}

// workingSet estimates the decoded bytes the round pins: the lanes of
// every distinct projection the plans name (measured through FetchBatch and
// MemBytes), plus the source bytes once when some plan needs whole rows —
// decoded items are at least as large as their JSON text.
func workingSet(eng *rumble.Engine, reddit string, queries []query) (int64, error) {
	ds, err := segment.OpenDataset(reddit)
	if err != nil {
		return 0, err
	}
	var total int64
	seen := map[string]bool{}
	for _, q := range queries {
		plan, err := eng.Explain(q.text)
		if err != nil {
			return 0, err
		}
		cols := "*"
		for _, line := range strings.Split(plan, "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "columns: "); ok {
				cols = rest
			}
		}
		if seen[cols] {
			continue
		}
		seen[cols] = true
		if cols == "*" {
			total += ds.Manifest.SourceBytes
			continue
		}
		for i := 0; i < ds.NumSegments(); i++ {
			cs, _, err := ds.FetchBatch(i, strings.Split(cols, ", "))
			if err != nil {
				return 0, err
			}
			total += cs.MemBytes()
		}
	}
	return total, nil
}

func setupSegmentHot(rp runPlan, dir string) (*bench, error) {
	reddit, facts, queries, err := segmentData(dir, rp.sizes.hot, rp.seed)
	if err != nil {
		return nil, err
	}
	cfg := engineConfig(rp.workers, true)
	eng := rumble.New(cfg)
	if err := requireVector(eng, queries); err != nil {
		return nil, err
	}
	ws, err := workingSet(eng, reddit, queries)
	if err != nil {
		return nil, err
	}
	if ws*2 > segment.DefaultCacheBytes {
		return nil, fmt.Errorf("decoded working set %d B is not well under the %d B pool", ws, segment.DefaultCacheBytes)
	}
	rb := &roundBench{queries: queries, rounds: rp.sizes.hotRounds, engine: func() *rumble.Engine { return eng }}
	b := &bench{
		clients: 1, op: rb.op, close: func() {},
		redditPath: reddit, queries: queries, engineConfig: cfg,
		info: map[string]any{"reddit_objects": facts.rows, "reddit_bytes": facts.bytes,
			"decoded_working_set_bytes": ws, "pool_bytes": int64(segment.DefaultCacheBytes),
			"rounds_per_op": rp.sizes.hotRounds, "engine": "one long-lived, Vectorize+Segments"},
		claims: func(a *acc, ops int) error {
			hit := ratio(float64(a.sum.hits), float64(a.sum.hits+a.sum.misses))
			switch {
			case a.sum.segRead == 0:
				return fmt.Errorf("segment_hot read no segments")
			case hit < 0.99:
				return fmt.Errorf("segment_hot pool_hit_ratio=%.4f, want >= 0.99", hit)
			case a.sum.shuffle != 0:
				return fmt.Errorf("segment_hot shuffled %d records through spark", a.sum.shuffle)
			case a.qSkipped["seg_pruned"] < int64(ops):
				return fmt.Errorf("seg_pruned skipped %d segments in %d ops", a.qSkipped["seg_pruned"], ops)
			}
			return nil
		},
	}
	return b, warm(b, rp.sizes.warmRounds)
}

func setupSegmentCold(rp runPlan, dir string) (*bench, error) {
	reddit, facts, queries, err := segmentData(dir, rp.sizes.cold, rp.seed)
	if err != nil {
		return nil, err
	}
	cfg := engineConfig(rp.workers, true)
	if err := requireVector(rumble.New(cfg), queries); err != nil {
		return nil, err
	}
	ws, err := workingSet(rumble.New(cfg), reddit, queries)
	if err != nil {
		return nil, err
	}
	// Larger than the program's own cache: the pool holds a quarter of
	// what one round decodes.
	cfg.SegmentCacheBytes = ws / 4
	rb := &roundBench{queries: queries, engine: func() *rumble.Engine { return rumble.New(cfg) }}
	b := &bench{
		clients: 1, op: rb.op, close: func() {},
		redditPath: reddit, queries: queries, engineConfig: cfg,
		info: map[string]any{"reddit_objects": facts.rows, "reddit_bytes": facts.bytes,
			"decoded_working_set_bytes": ws, "pool_bytes": cfg.SegmentCacheBytes,
			"engine": "fresh per op, Vectorize+Segments"},
		claims: func(a *acc, ops int) error {
			if a.opsNoMiss > 0 || a.sum.segRead == 0 {
				return fmt.Errorf("segment_cold: %d of %d ops had no pool miss", a.opsNoMiss, ops)
			}
			return nil
		},
	}
	if err := warm(b, rp.sizes.warmRounds); err != nil {
		return nil, err
	}
	// Evictions: on one engine a second round still misses, which a pool
	// that held the working set would not.
	eng := rumble.New(cfg)
	again := &roundBench{queries: queries, engine: func() *rumble.Engine { return eng }}
	for i := 0; i < 2; i++ {
		a := newAcc()
		if _, ok := again.op(nil, 0, i, a); !ok {
			return nil, fmt.Errorf("segment_cold returned a wrong result")
		}
		if i == 1 && a.sum.misses == 0 {
			return nil, fmt.Errorf("segment_cold: a second round on one engine missed nothing, so a %d B pool holds the %d B working set",
				cfg.SegmentCacheBytes, ws)
		}
	}
	return b, nil
}

func setupIngestWrite(rp runPlan, dir string) (*bench, error) {
	reddit := filepath.Join(dir, "reddit.jsonl")
	facts, err := writeReddit(reddit, rp.sizes.ingest, rp.seed+1)
	if err != nil {
		return nil, err
	}
	queries := []query{
		{name: "ingest_count", text: fmt.Sprintf(
			`count(for $o in json-file(%q) where $o.score gt 1500 return $o)`, reddit)},
		{name: "write_proj", write: true, text: fmt.Sprintf(`
			for $o in json-file(%q)
			where $o.score gt 1000
			return {"id": $o.id, "subreddit": $o.subreddit, "score": $o.score}`, reddit)},
	}
	outDir := filepath.Join(dir, "out")
	if err := oracle(queries, outDir); err != nil {
		return nil, err
	}
	// Closed forms: the count's value is the one item the oracle digested,
	// and the projection writes one line per row with score > 1000.
	var want digest
	want.add([]byte(fmt.Sprint(facts.scoresAbove(1500))), false)
	if queries[0].want != want {
		return nil, fmt.Errorf("ingest_count oracle disagrees with the generated file (%d rows above 1500)", facts.scoresAbove(1500))
	}
	if got, want := queries[1].want.count, facts.scoresAbove(1000); got != want {
		return nil, fmt.Errorf("write_proj oracle wrote %d lines, the generated file has %d", got, want)
	}
	cfg := engineConfig(rp.workers, true)
	if err := requireVector(rumble.New(cfg), queries); err != nil {
		return nil, err
	}
	rb := &roundBench{queries: queries, outDir: outDir,
		engine:   func() *rumble.Engine { return rumble.New(cfg) },
		beforeOp: func() error { return os.RemoveAll(segment.Dir(reddit)) }}
	b := &bench{
		clients: 1, op: rb.op, close: func() {},
		redditPath: reddit, queries: queries, engineConfig: cfg,
		info: map[string]any{"reddit_objects": facts.rows, "reddit_bytes": facts.bytes,
			"engine": "fresh per op, Vectorize+Segments, segments removed before each op"},
		claims: func(a *acc, ops int) error {
			if a.sum.segRead == 0 || a.opsNoMiss > 0 {
				return fmt.Errorf("ingest_write: %d of %d ops answered without decoding a fresh segment", a.opsNoMiss, ops)
			}
			return nil
		},
	}
	return b, warm(b, rp.sizes.warmRounds)
}
