package rumble

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rumble/internal/item"
	"rumble/internal/segment"
)

// segmentConformanceData registers the shared conformance collections
// file-backed: every text-expressible collection is written to a
// JSON-Lines file under dir (once — engines registered against the same
// dir share the files and their ingested `.segments` siblings). The
// in-memory "edge" collection keeps its item registration — its values
// (NaN, -0.0) have no JSON-text form — and exercises the in-memory
// fallback next to segment-backed sources.
func segmentConformanceData(t *testing.T, eng *Engine, dir string) {
	t.Helper()
	for name, lines := range vectorConformanceJSON() {
		path := filepath.Join(dir, name+".jsonl")
		if _, err := os.Stat(path); err != nil {
			text := ""
			if len(lines) > 0 {
				text = strings.Join(lines, "\n") + "\n"
			}
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		eng.RegisterCollection(name, path)
	}
	registerEdgeCollection(eng)
}

// segmentFiles reads every file of every `.segments` directory under dir,
// keyed by its path relative to dir — all but SOURCE.json, the stat
// fingerprint of the source, which differs between copies of the same
// bytes (checkSourceRecords checks it).
func segmentFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	stores, err := filepath.Glob(filepath.Join(dir, "*.segments", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range stores {
		if filepath.Base(path) == segment.SourceName {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(data)
	}
	return files
}

// checkSourceRecords checks the SOURCE.json of every `.segments` directory
// under dir: it parses, names the checksum of the manifest beside it, and
// matches a fresh stat of its source file — name, size and mtime here, and
// change time and inode through a fresh segments engine, which opens every
// source without hashing one.
func checkSourceRecords(t *testing.T, dir string) {
	t.Helper()
	stores, err := filepath.Glob(filepath.Join(dir, "*.segments"))
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Executors: 2, Vectorize: true, Segments: true})
	for _, store := range stores {
		var manifest struct {
			Checksum uint32 `json:"checksum"`
		}
		var record struct {
			Manifest uint32 `json:"manifest_checksum"`
			Parts    []struct {
				Name  string `json:"name"`
				Size  int64  `json:"size"`
				Mtime int64  `json:"mtime_ns"`
			} `json:"parts"`
		}
		for name, v := range map[string]any{segment.ManifestName: &manifest, segment.SourceName: &record} {
			data, err := os.ReadFile(filepath.Join(store, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, v); err != nil {
				t.Fatalf("%s/%s does not parse: %v", store, name, err)
			}
		}
		if record.Manifest != manifest.Checksum {
			t.Fatalf("%s: %s names manifest %08x, the manifest is %08x", store, segment.SourceName, record.Manifest, manifest.Checksum)
		}
		source := strings.TrimSuffix(store, ".segments")
		fi, err := os.Stat(source)
		if err != nil {
			t.Fatal(err)
		}
		if p := record.Parts; len(p) != 1 || p[0].Name != fi.Name() || p[0].Size != fi.Size() || p[0].Mtime != fi.ModTime().UnixNano() {
			t.Fatalf("%s: %s records %+v, a fresh stat gives %s, %d bytes, mtime %d",
				store, segment.SourceName, p, fi.Name(), fi.Size(), fi.ModTime().UnixNano())
		}
		if _, err := eng.Query(fmt.Sprintf(`count(for $o in json-file(%q) return $o)`, source)); err != nil {
			t.Fatal(err)
		}
	}
	if m := eng.Metrics(); m.SegmentsRead == 0 || m.SegmentSourceHashes != 0 || m.SegmentIngests != 0 {
		t.Fatalf("a fresh engine opening %d sources read %d segments, hashed %d sources and ingested %d, want no hash and no ingest",
			len(stores), m.SegmentsRead, m.SegmentSourceHashes, m.SegmentIngests)
	}
}

// TestSegmentScanConformance pins the segment store's core contract: a
// segment-backed scan is observationally identical to the JSON-Lines scan
// it replaces. For every query of the shared vector corpus, an engine
// with Segments on must reproduce its Segments-off twin bit for bit —
// values, emit order, and which error surfaces — across morsel worker
// counts 1, 2 and 8 and with vectorization on and off. Only the metrics
// may differ: the segment engines must actually have served segments
// (SegmentsRead > 0), or the whole comparison would be vacuous.
func TestSegmentScanConformance(t *testing.T) {
	dir := t.TempDir()
	configs := []struct {
		workers   int
		vectorize bool
	}{
		{workers: 2, vectorize: false},
		{workers: 1, vectorize: true},
		{workers: 2, vectorize: true},
		{workers: 8, vectorize: true},
	}
	type pair struct {
		raw, seg  *Engine
		workers   int
		vectorize bool
	}
	// Each configuration gets its own copy of the files, so each segment
	// engine pays the first-touch ingest itself, on its own executor count.
	pairs := make([]pair, len(configs))
	dirs := make([]string, len(configs))
	for i, cfg := range configs {
		dirs[i] = filepath.Join(dir, fmt.Sprint(i))
		if err := os.Mkdir(dirs[i], 0o755); err != nil {
			t.Fatal(err)
		}
		raw := New(Config{Parallelism: 2, Executors: cfg.workers, Vectorize: cfg.vectorize})
		seg := New(Config{Parallelism: 2, Executors: cfg.workers, Vectorize: cfg.vectorize, Segments: true})
		segmentConformanceData(t, raw, dirs[i])
		segmentConformanceData(t, seg, dirs[i])
		pairs[i] = pair{raw: raw, seg: seg, workers: cfg.workers, vectorize: cfg.vectorize}
	}

	for _, tc := range vectorConformanceCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range pairs {
				label := fmt.Sprintf("workers=%d vectorize=%v", p.workers, p.vectorize)
				rs, err := p.raw.Compile(tc.query)
				if err != nil {
					t.Fatalf("%s: compile (raw): %v", label, err)
				}
				ss, err := p.seg.Compile(tc.query)
				if err != nil {
					t.Fatalf("%s: compile (segments): %v", label, err)
				}
				if rm, sm := rs.Mode(), ss.Mode(); rm != sm {
					t.Fatalf("%s: mode differs: raw %s vs segments %s", label, rm, sm)
				}
				rItems, rErr := streamAll(rs)
				sItems, sErr := streamAll(ss)
				if (rErr == nil) != (sErr == nil) {
					t.Fatalf("%s: error mismatch: raw %v vs segments %v", label, rErr, sErr)
				}
				if rErr != nil {
					if rErr.Error() != sErr.Error() {
						t.Fatalf("%s: error selection differs\nraw:      %s\nsegments: %s", label, rErr, sErr)
					}
					continue
				}
				got, want := item.SerializeSequence(sItems), item.SerializeSequence(rItems)
				if got != want {
					t.Fatalf("%s: streamed results differ\nsegments:\n%s\nraw:\n%s", label, got, want)
				}
			}
		})
	}

	// What the engines ingested on 1, 2 and 8 executors is the same bytes
	// (the vectorize-off engine ingests nothing), each bound to its source.
	for _, dir := range dirs[1:] {
		checkSourceRecords(t, dir)
	}
	want := segmentFiles(t, dirs[1])
	if len(want) == 0 {
		t.Fatal("the one-executor engine ingested nothing")
	}
	for i := 2; i < len(dirs); i++ {
		got := segmentFiles(t, dirs[i])
		if len(got) != len(want) {
			t.Fatalf("workers=%d wrote %d segment-store files, workers=%d wrote %d", configs[i].workers, len(got), configs[1].workers, len(want))
		}
		for name, data := range want {
			if got[name] != data {
				t.Errorf("workers=%d: %s differs from what workers=%d wrote", configs[i].workers, name, configs[1].workers)
			}
		}
	}

	for _, p := range pairs {
		m := p.seg.Metrics()
		if p.vectorize && m.SegmentsRead == 0 {
			t.Errorf("workers=%d vectorize=%v: SegmentsRead = 0 — the segment path never engaged, the conformance run was vacuous",
				p.workers, p.vectorize)
		}
		if !p.vectorize && m.SegmentsRead != 0 {
			t.Errorf("workers=%d vectorize=%v: SegmentsRead = %d — segments must not engage outside the vector backend",
				p.workers, p.vectorize, m.SegmentsRead)
		}
	}
}

// TestSegmentScanLiteralConformance runs the language conformance table
// on a segments-enabled engine: queries that never touch storage must be
// completely indifferent to the store's existence.
func TestSegmentScanLiteralConformance(t *testing.T) {
	eng := New(Config{Parallelism: 2, Executors: 2, Vectorize: true, Segments: true})
	for name, c := range conformanceCases {
		t.Run(name, func(t *testing.T) {
			out, err := eng.QueryJSON(c.query)
			if c.wantErr {
				if err == nil {
					t.Fatalf("query %s should fail, got %v", c.query, out)
				}
				return
			}
			if err != nil {
				t.Fatalf("query failed: %v\n%s", err, c.query)
			}
			if got := strings.Join(out, "\n"); got != c.want {
				t.Errorf("got:\n%s\nwant:\n%s\nquery: %s", got, c.want, c.query)
			}
		})
	}
}

// TestZoneMapSkipReadsFraction pins zone-map pruning with metrics: a
// selective predicate over sorted data must skip the segments its zone
// maps prove irrelevant before any row is touched, so the records
// actually read stay a small fraction of the collection — with results
// identical to the unpruned JSON-line scan.
func TestZoneMapSkipReadsFraction(t *testing.T) {
	const rows = 40000 // ~10 segments of 4096 rows
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, `{"g": %d, "v": %d}`+"\n", i%7, i)
	}
	path := filepath.Join(t.TempDir(), "sorted.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// v ge 36000 touches only the last ~2 of ~10 segments; the grouped
	// aggregation needs every surviving row, so nothing early-exits.
	query := fmt.Sprintf(`for $o in json-file(%q)
		where $o.v ge 36000
		group by $g := $o.g
		return { "g": $g, "n": count($o), "s": sum($o.v) }`, path)

	ref := New(Config{Parallelism: 2, Executors: 2, Vectorize: true})
	rs, err := ref.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	refItems, err := streamAll(rs)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		eng := New(Config{Parallelism: 2, Executors: workers, Vectorize: true, Segments: true})
		st, err := eng.Compile(query)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Mode() != "Vector" {
			t.Fatalf("workers=%d: mode = %s, want Vector", workers, st.Mode())
		}
		eng.ResetMetrics()
		items, err := streamAll(st)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := item.SerializeSequence(items), item.SerializeSequence(refItems); got != want {
			t.Fatalf("workers=%d: pruned results differ from unpruned scan\npruned:\n%s\nunpruned:\n%s", workers, got, want)
		}
		m := eng.Metrics()
		if m.SegmentsSkipped < 7 {
			t.Errorf("workers=%d: SegmentsSkipped = %d, want >= 7 (zone maps must prune the sorted prefix)", workers, m.SegmentsSkipped)
		}
		if m.SegmentsRead > 2 {
			t.Errorf("workers=%d: SegmentsRead = %d, want <= 2", workers, m.SegmentsRead)
		}
		if max := int64(rows / 4); m.RecordsRead > max {
			t.Errorf("workers=%d: RecordsRead = %d, want <= %d (pruning must keep reads to the matching tail)",
				workers, m.RecordsRead, max)
		}
	}
}

// TestSegmentBackgroundReingest pins the stale-store contract end to end:
// when the source file changed under an existing `.segments` sibling, the
// first query serves the fresh raw scan immediately (no stale segment may
// answer, no ingest stall on the query path) while the store rebuilds in
// the background; once the rebuild lands, queries serve segments again and
// the server's segment_reingests counter records exactly one rebuild.
func TestSegmentBackgroundReingest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grow.jsonl")
	write := func(rows int) {
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&sb, `{"g": %d, "v": %d}`+"\n", i%5, i)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	query := fmt.Sprintf(`for $o in json-file(%q) where $o.v ge 4990 return $o.v`, path)
	run := func(eng *Engine) string {
		t.Helper()
		st, err := eng.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		items, err := streamAll(st)
		if err != nil {
			t.Fatal(err)
		}
		return item.SerializeSequence(items)
	}

	write(5000)
	eng1 := New(Config{Parallelism: 2, Executors: 2, Vectorize: true, Segments: true})
	first := run(eng1) // ingests the v1 store
	if first == "" {
		t.Fatal("v1 query returned nothing")
	}

	write(5100) // the v1 manifest's source hash is now stale
	eng2 := New(Config{Parallelism: 2, Executors: 2, Vectorize: true, Segments: true})
	eng2.ResetMetrics()
	got := run(eng2)
	want := run(New(Config{Parallelism: 2, Executors: 2, Vectorize: true}))
	if got != want {
		t.Fatalf("stale-store query served wrong data\ngot:\n%s\nwant:\n%s", got, want)
	}
	if m := eng2.Metrics(); m.SegmentsRead != 0 {
		t.Errorf("stale-store query read %d segments; it must fall back to the raw scan", m.SegmentsRead)
	}
	eng2.env.Segments.WaitRebuilds()
	if m := eng2.Metrics(); m.SegmentReingests != 1 {
		t.Errorf("SegmentReingests = %d, want 1", m.SegmentReingests)
	}
	eng2.ResetMetrics()
	if got := run(eng2); got != want {
		t.Fatalf("post-rebuild query differs\ngot:\n%s\nwant:\n%s", got, want)
	}
	if m := eng2.Metrics(); m.SegmentsRead == 0 {
		t.Error("post-rebuild query still not serving segments")
	}
}

// TestSegmentBufferPoolMetrics pins the cache-residency counters end to
// end: the first evaluation decodes every segment once (misses), a rerun
// on the same engine serves entirely from the buffer pool (hits, and no
// simulated storage reads), and each full segment is decoded by exactly
// one of its four morsels.
func TestSegmentBufferPoolMetrics(t *testing.T) {
	const rows = 12288 // 3 full segments = 12 morsels
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, `{"v": %d}`+"\n", i)
	}
	path := filepath.Join(t.TempDir(), "pool.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Parallelism: 2, Executors: 2, Vectorize: true, Segments: true})
	query := fmt.Sprintf(`count(for $o in json-file(%q) where $o.v ge 0 return $o)`, path)
	run := func() {
		t.Helper()
		st, err := eng.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		items, err := streamAll(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := item.SerializeSequence(items); got != fmt.Sprint(rows) {
			t.Fatalf("count = %s, want %d", got, rows)
		}
	}
	eng.ResetMetrics()
	run()
	m := eng.Metrics()
	if m.SegmentsRead != 3 || m.SegmentCacheMiss != 3 || m.SegmentCacheHits != 9 {
		t.Errorf("cold run: read=%d miss=%d hits=%d, want 3/3/9 (one decode per segment, three pooled fetches)",
			m.SegmentsRead, m.SegmentCacheMiss, m.SegmentCacheHits)
	}
	eng.ResetMetrics()
	run()
	m = eng.Metrics()
	if m.SegmentCacheMiss != 0 || m.SegmentCacheHits != 12 {
		t.Errorf("hot run: miss=%d hits=%d, want 0/12 (every morsel must ride the buffer pool)",
			m.SegmentCacheMiss, m.SegmentCacheHits)
	}
}

// TestFirstTouchIngestIsVisible: the statement whose scan pays a source's
// first-touch ingest says so — on its scan line in explain-analyze and in its
// profile snapshot — and no later statement does; the engine's counters
// record the ingest, its wall time and the source bytes it read, and the
// ingest ran on the engine's executors.
func TestFirstTouchIngestIsVisible(t *testing.T) {
	const rows = 5000
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, `{"g": %d, "v": %d}`+"\n", i%5, i)
	}
	path := filepath.Join(t.TempDir(), "fresh.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Parallelism: 2, Executors: 3, Vectorize: true, Segments: true})
	query := fmt.Sprintf(`count(for $o in json-file(%q) where $o.v ge 10 return $o)`, path)
	note := regexp.MustCompile(`out=5000 batches=\d+ \d+\.\d\dms; ingest=\d+\.\d\dms rows=5000 segments=2 workers=3\)`)

	plan, err := eng.ExplainAnalyze(query)
	if err != nil {
		t.Fatal(err)
	}
	if !note.MatchString(plan) {
		t.Fatalf("the paying statement's plan does not note the ingest on its scan line:\n%s", plan)
	}
	m := eng.Metrics()
	if m.SegmentIngests != 1 || m.SegmentIngestBytes != int64(sb.Len()) || m.SegmentIngestSeconds <= 0 {
		t.Fatalf("after one first touch: ingests=%d bytes=%d (source %d) seconds=%v",
			m.SegmentIngests, m.SegmentIngestBytes, sb.Len(), m.SegmentIngestSeconds)
	}

	// The same statement again, and a fresh engine over the segments now on
	// disk: nothing to pay, nothing noted, nothing counted.
	for _, e := range []*Engine{eng, New(Config{Parallelism: 2, Executors: 3, Vectorize: true, Segments: true})} {
		st, err := e.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		prof := st.NewProfile()
		if _, err := st.CollectProfiled(context.Background(), 0, prof); err != nil {
			t.Fatal(err)
		}
		for _, op := range prof.Snapshot().Ops {
			if op.Note != "" {
				t.Fatalf("operator %q of a statement that paid nothing carries the note %q", op.Name, op.Note)
			}
		}
	}
	if got := eng.Metrics().SegmentIngests; got != 1 {
		t.Fatalf("SegmentIngests = %d after statements that ingested nothing, want 1", got)
	}

	// The snapshot of a paying statement carries the note as data.
	if err := os.RemoveAll(path + ".segments"); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Parallelism: 2, Executors: 3, Vectorize: true, Segments: true})
	st, err := fresh.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	prof := st.NewProfile()
	if _, err := st.CollectProfiled(context.Background(), 0, prof); err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, op := range prof.Snapshot().Ops {
		if op.Note != "" {
			notes = append(notes, op.Note)
		}
	}
	if len(notes) != 1 || !strings.HasPrefix(notes[0], "ingest=") || !strings.HasSuffix(notes[0], "rows=5000 segments=2 workers=3") {
		t.Fatalf("profile snapshot notes = %q", notes)
	}
}
