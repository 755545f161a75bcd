package segment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rumble/internal/dfs"
	"rumble/internal/item"
	"rumble/internal/sched"
	"rumble/internal/vector"
)

// writeSource writes n JSON lines {"g": i % 7, "v": i} and returns the path.
func writeSource(t *testing.T, n int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "{\"g\": %d, \"v\": %d}\n", i%7, i)
	}
	path := filepath.Join(t.TempDir(), "data.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fetchAll reads every row of ds the way a whole-row scan does: all of a
// segment's columns as lanes, rows assembled from them.
func fetchAll(t *testing.T, ds *Dataset) []item.Item {
	t.Helper()
	var rows []item.Item
	for i := 0; i < ds.NumSegments(); i++ {
		cs, _, err := ds.FetchBatch(i, ds.Meta(i).ColumnNames())
		if err != nil {
			t.Fatalf("FetchBatch(%d): %v", i, err)
		}
		for r := 0; r < cs.NumRows; r++ {
			row, err := cs.Row(r)
			if err != nil {
				t.Fatalf("segment %d: %v", i, err)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func TestIngestAndOpen(t *testing.T) {
	noLeaks(t)
	const n = 2*Rows + 123 // two full segments plus a partial tail
	path := writeSource(t, n)
	if err := Ingest(path); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.NumSegments(); got != 3 {
		t.Fatalf("NumSegments = %d, want 3", got)
	}
	// All segments but the last hold exactly Rows rows — the invariant the
	// scanner's positional slot numbering depends on.
	for i := 0; i < ds.NumSegments()-1; i++ {
		if ds.Meta(i).Rows != Rows {
			t.Fatalf("segment %d holds %d rows, want %d", i, ds.Meta(i).Rows, Rows)
		}
	}
	rows := fetchAll(t, ds)
	if len(rows) != n {
		t.Fatalf("fetched %d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		want := obj("g", item.Int(i%7), "v", item.Int(i))
		if !itemsEqual(r, want) {
			t.Fatalf("row %d: got %v, want %v", i, r, want)
		}
	}
	// Every segment carries zone maps for both columns, with sane ranges.
	z, ok := ds.Meta(0).Zone("v")
	if !ok {
		t.Fatal("segment 0 has no zone map for v")
	}
	if !z.HasRange || z.Min.SortKey().Int != 0 || z.Max.SortKey().Int != Rows-1 {
		t.Fatalf("segment 0 zone for v = %+v, want range [0, %d]", z, Rows-1)
	}
}

func TestOpenDatasetStaleHash(t *testing.T) {
	noLeaks(t)
	path := writeSource(t, 100)
	if err := Ingest(path); err != nil {
		t.Fatal(err)
	}
	// Appending a line changes the source content hash: the strict open
	// must refuse the now-stale segments with a structured error.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, `{"g": 0, "v": 100}`)
	f.Close()
	_, err = OpenDataset(path)
	if err == nil {
		t.Fatal("OpenDataset accepted stale segments")
	}
	if _, ok := err.(*Error); !ok || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("want structured stale-segments error, got %T: %v", err, err)
	}
	// The pooled store serves the raw scan immediately (nil dataset, nil
	// error) and rebuilds the segments in the background.
	reingests := 0
	s := NewStore(0)
	s.OnReingest = func() { reingests++ }
	ds, err := s.Open(path)
	if ds != nil || err != nil {
		t.Fatalf("Store.Open on stale segments: ds=%v err=%v, want nil/nil (raw scan while rebuilding)", ds, err)
	}
	s.WaitRebuilds()
	if reingests != 1 {
		t.Fatalf("background re-ingests = %d, want 1", reingests)
	}
	ds, err = s.Open(path)
	if err != nil || ds == nil {
		t.Fatalf("Store.Open after rebuild: ds=%v err=%v", ds, err)
	}
	if ds.Manifest.Rows != 101 {
		t.Fatalf("re-ingested manifest rows = %d, want 101", ds.Manifest.Rows)
	}
	rows := fetchAll(t, ds)
	if len(rows) != 101 || !itemsEqual(rows[100], obj("g", item.Int(0), "v", item.Int(100))) {
		t.Fatalf("rebuilt dataset rows = %d, want 101 ending with the appended row", len(rows))
	}
}

func TestStoreTorture(t *testing.T) {
	noLeaks(t)
	newDataset := func(t *testing.T) (*Dataset, string) {
		path := writeSource(t, Rows+50)
		if err := Ingest(path); err != nil {
			t.Fatal(err)
		}
		ds, err := OpenDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		return ds, filepath.Join(ds.Dir, ds.Meta(0).File)
	}
	wantStructuredFetchError := func(t *testing.T, ds *Dataset, substr string) {
		t.Helper()
		_, _, err := ds.FetchBatch(0, ds.Meta(0).ColumnNames())
		if err == nil {
			t.Fatal("FetchBatch succeeded on corrupted segment")
		}
		if _, ok := err.(*Error); !ok {
			t.Fatalf("unstructured error %T: %v", err, err)
		}
		if substr != "" && !strings.Contains(err.Error(), substr) {
			t.Fatalf("error %q does not mention %q", err, substr)
		}
	}

	t.Run("truncated segment file", func(t *testing.T) {
		ds, seg := newDataset(t)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		wantStructuredFetchError(t, ds, "")
	})

	t.Run("bit-flipped lane", func(t *testing.T) {
		ds, seg := newDataset(t)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-10] ^= 0x40 // deep inside the lane payload
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantStructuredFetchError(t, ds, "checksum")
	})

	t.Run("deleted segment file", func(t *testing.T) {
		ds, seg := newDataset(t)
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
		wantStructuredFetchError(t, ds, "")
	})

	wantStructuredOpenError := func(t *testing.T, ds *Dataset, substr string) {
		t.Helper()
		_, err := OpenDataset(ds.Source) // the source hash still matches
		if err == nil {
			t.Fatal("OpenDataset accepted a tampered manifest")
		}
		if _, ok := err.(*Error); !ok || !strings.Contains(err.Error(), substr) {
			t.Fatalf("want a structured error mentioning %q, got %T: %v", substr, err, err)
		}
	}

	t.Run("manifest zone maps tampered", func(t *testing.T) {
		ds, _ := newDataset(t)
		editManifest(t, ds.Dir, func(m *Manifest) {
			m.Segments[0].Cols[0].Zone.Nulls++ // claim a null the lanes don't hold
		})
		wantStructuredOpenError(t, ds, "manifest checksum")
	})

	t.Run("manifest row count inconsistent", func(t *testing.T) {
		ds, _ := newDataset(t)
		editManifest(t, ds.Dir, func(m *Manifest) { m.Segments[0].Rows-- })
		wantStructuredOpenError(t, ds, "manifest checksum")
	})

	t.Run("segment file swapped from another dataset", func(t *testing.T) {
		ds, seg := newDataset(t)
		other := writeABC(t, Rows+50)
		if err := Ingest(other); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(Dir(other), "seg-00000.rseg"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The image itself is valid: only the manifest's binding rejects it.
		if _, err := DecodeColumns(seg, data, nil); err != nil {
			t.Fatal(err)
		}
		wantStructuredFetchError(t, ds, "CRC mismatch")
	})
}

// editManifest rewrites the manifest in dir through edit, leaving its
// recorded checksum as it was.
func editManifest(t *testing.T, dir string, edit func(*Manifest)) {
	t.Helper()
	mpath := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRebuildsRefusedManifests: a manifest of an older version and a
// tampered one each make Store.Open serve the raw scan, then rebuild the
// segments exactly once in the background; the rebuilt dataset serves the
// source's rows.
func TestStoreRebuildsRefusedManifests(t *testing.T) {
	noLeaks(t)
	for name, edit := range map[string]func(*Manifest){
		"version 2": func(m *Manifest) {
			m.Version, m.Checksum = 2, 0
			for i := range m.Segments {
				m.Segments[i].CRC = 0
			}
		},
		"tampered": func(m *Manifest) { m.Segments[0].Cols[0].Zone.Present-- },
	} {
		t.Run(name, func(t *testing.T) {
			const n = Rows + 50
			path := writeSource(t, n)
			if err := Ingest(path); err != nil {
				t.Fatal(err)
			}
			editManifest(t, Dir(path), edit)
			reingests := 0
			s := NewStore(0)
			s.OnReingest = func() { reingests++ }
			if ds, err := s.Open(path); ds != nil || err != nil {
				t.Fatalf("Store.Open: ds=%v err=%v, want nil/nil (raw scan while rebuilding)", ds, err)
			}
			s.WaitRebuilds()
			ds, err := s.Open(path)
			if err != nil || ds == nil {
				t.Fatalf("Store.Open after rebuild: ds=%v err=%v", ds, err)
			}
			if reingests != 1 {
				t.Fatalf("background re-ingests = %d, want 1", reingests)
			}
			rows := fetchAll(t, ds)
			if len(rows) != n {
				t.Fatalf("rebuilt dataset holds %d rows, want %d", len(rows), n)
			}
			for i, r := range rows {
				if want := obj("g", item.Int(i%7), "v", item.Int(i)); !itemsEqual(r, want) {
					t.Fatalf("row %d: got %v, want %v", i, r, want)
				}
			}
			if _, err := OpenDataset(path); err != nil {
				t.Fatalf("the rebuilt manifest does not open: %v", err)
			}
		})
	}
}

// TestColdFetchDoesNotAliasReadBuffer: segment files are read into recycled
// buffers, so a decoded segment must not point into the buffer it was read
// from. Cold fetches of two datasets run concurrently and reuse each other's
// buffers, the free list's buffers are then scribbled over, and every snapshot
// must still hold its source's rows.
func TestColdFetchDoesNotAliasReadBuffer(t *testing.T) {
	noLeaks(t)
	const n = 2*Rows + 10
	type fetch struct {
		ds  *Dataset
		seg int
	}
	var datasets []*Dataset
	for _, path := range []string{writeSource(t, n), writeABC(t, n)} {
		if err := Ingest(path); err != nil {
			t.Fatal(err)
		}
		ds, err := OpenDataset(path) // no pool: every fetch reads the file
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, ds)
	}
	var got []*ColumnSet
	err := sched.Ordered(context.Background(), 4, 16, func(emit func(fetch) error) error {
		for round := 0; round < 3; round++ {
			for seg := 0; seg < datasets[0].NumSegments(); seg++ {
				for _, ds := range datasets {
					if err := emit(fetch{ds, seg}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}, func(_ int, f fetch) (*ColumnSet, error) {
		cs, _, err := f.ds.FetchBatch(f.seg, f.ds.Meta(f.seg).ColumnNames())
		return cs, err
	}, func(_ int, cs *ColumnSet) (bool, error) {
		got = append(got, cs)
		return false, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the free list — every buffer a load released — and scribble
	// over each.
	for i := 0; i < dfs.FreeListMax; i++ {
		buf := readBuffers.Get()
		b := buf.Bytes()[:buf.Cap()]
		for j := range b {
			b[j] = 0xFF
		}
	}
	for k, cs := range got {
		ds, seg := datasets[k%2], k/2%datasets[0].NumSegments()
		for r := 0; r < cs.NumRows; r++ {
			i := seg*Rows + r
			want := obj("g", item.Int(int64(i%7)), "v", item.Int(int64(i)))
			if k%2 == 1 {
				want = obj("a", item.Str(fmt.Sprintf("a%d", i%11)), "b", item.Str(fmt.Sprintf("b%d", i%13)), "c", item.Str(fmt.Sprintf("c%d", i)))
			}
			row, err := cs.Row(r)
			if err != nil || !itemsEqual(row, want) {
				t.Fatalf("%s segment %d row %d: got %v (%v), want %v", ds.Source, seg, r, row, err, want)
			}
		}
	}
}

func TestStoreOpenFallbackOnUnparseableSource(t *testing.T) {
	noLeaks(t)
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"g\": 1}\nnot json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(0)
	ds, err := s.Open(path)
	if ds != nil || err == nil {
		t.Fatalf("Open of unparseable source: ds=%v err=%v, want nil dataset + error", ds, err)
	}
	if _, err := os.Stat(Dir(path)); !os.IsNotExist(err) {
		t.Fatalf("failed ingest left a segments directory behind: %v", err)
	}
	// The failure is cached per store: the second open resolves identically.
	ds2, err2 := s.Open(path)
	if ds2 != nil || err2 == nil {
		t.Fatalf("second Open: ds=%v err=%v", ds2, err2)
	}
	// Until the source changes: fixed, it ingests on the next open.
	if err := os.WriteFile(path, []byte("{\"g\": 1}\n{\"g\": 2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err = s.Open(path)
	if err != nil || ds == nil {
		t.Fatalf("Open of the fixed source: ds=%v err=%v", ds, err)
	}
	if rows := fetchAll(t, ds); len(rows) != 2 || !itemsEqual(rows[1], obj("g", item.Int(2))) {
		t.Fatalf("fixed source rows: %v", rows)
	}
}

// TestStoreRevalidatesOnEveryOpen: a store serves the dataset it validated,
// without hashing, while the source stats the same, and a rewrite that kept
// the source's size, mtime and inode is caught by its change time. Each
// part of the stat fingerprint — size, mtime, change time, inode, the part
// list — is covered against the raw answer by TestLiveEngineSeesSourceChange.
func TestStoreRevalidatesOnEveryOpen(t *testing.T) {
	noLeaks(t)
	path := writeSource(t, 100)
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	s := NewStore(0)
	hashes := 0
	s.OnSourceHash = func() { hashes++ }
	ds, err := s.Open(path) // first touch
	if err != nil || ds == nil {
		t.Fatalf("first touch: ds=%v err=%v", ds, err)
	}
	checkSourceRecord(t, path, dirFiles(t, Dir(path)))
	if again, err := s.Open(path); again != ds || err != nil || hashes != 0 {
		t.Fatalf("reopen: ds=%p (first %p) err=%v hashes=%d, want the same dataset and no hash", again, ds, err, hashes)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.ReplaceAll(data, []byte(`"g": 0`), []byte(`"g": 9`)) // same size
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	if ds, err := s.Open(path); ds != nil || err != nil || hashes != 1 {
		t.Fatalf("Open of the rewritten source: ds=%v err=%v hashes=%d, want one hash and the raw scan while rebuilding", ds, err, hashes)
	}
	s.WaitRebuilds()
	ds, err = s.Open(path)
	if err != nil || ds == nil {
		t.Fatalf("Open after the rebuild: ds=%v err=%v", ds, err)
	}
	if rows := fetchAll(t, ds); len(rows) != 100 || !itemsEqual(rows[0], obj("g", item.Int(9), "v", item.Int(0))) {
		t.Fatalf("rebuilt dataset: %d rows, first %v", len(rows), rows[0])
	}
	checkSourceRecord(t, path, dirFiles(t, Dir(path)))

	// A lost SOURCE.json costs one hash, which records it again.
	if err := os.Remove(filepath.Join(Dir(path), SourceName)); err != nil {
		t.Fatal(err)
	}
	before := hashes
	for i := 0; i < 2; i++ { // the first open hashes and records, the second trusts the record
		if _, err := openDataset(path, statSource(path), func() { hashes++ }); err != nil {
			t.Fatal(err)
		}
	}
	if hashes != before+1 {
		t.Fatalf("two opens after SOURCE.json was lost hashed %d times, want 1", hashes-before)
	}
	checkSourceRecord(t, path, dirFiles(t, Dir(path)))
}

// TestUnsettledSourceIsHashed: a source stamped ahead of the file system
// clock cannot settle. Its ingest records no SOURCE.json, without waiting
// for a clock tick that would not come in time, and every open — of a
// fresh store or of one that opened it before — validates it by hash.
func TestUnsettledSourceIsHashed(t *testing.T) {
	noLeaks(t)
	path := writeSource(t, 100)
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	if err := Ingest(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(Dir(path), SourceName)); !os.IsNotExist(err) {
		t.Fatalf("an unsettled source got a %s: %v", SourceName, err)
	}
	s := NewStore(0)
	hashes := 0
	s.OnSourceHash = func() { hashes++ }
	for i := 1; i <= 2; i++ {
		if ds, err := s.Open(path); ds == nil || err != nil || hashes != i {
			t.Fatalf("open %d: ds=%v err=%v hashes=%d, want a dataset validated by hash", i, ds, err, hashes)
		}
	}
	if _, err := os.Stat(filepath.Join(Dir(path), SourceName)); !os.IsNotExist(err) {
		t.Fatalf("an open recorded a %s for an unsettled source: %v", SourceName, err)
	}
	if left := dirFiles(t, Dir(path)); len(left) != 2 {
		t.Fatalf("segments directory holds %d files, want the manifest and one segment", len(left))
	}
}

// fakeSet is a snapshot holding (empty) lanes for fields and pinning bytes.
func fakeSet(bytes int64, fields ...string) *ColumnSet {
	cs := &ColumnSet{cols: map[string]*vector.Col{}, bytes: bytes}
	for _, f := range fields {
		cs.cols[f] = &vector.Col{}
	}
	return cs
}

func TestBufferPoolLRU(t *testing.T) {
	loads := map[string]int{}
	p := newPool(100)
	get := func(key string, cost int64) int {
		_, blocks, err := p.get(key, cost, []string{"v"}, func(*ColumnSet) (*ColumnSet, int, error) {
			loads[key]++
			return fakeSet(cost, "v"), 2, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	if get("a", 40) != 2 {
		t.Fatal("cold read of a must report its blocks")
	}
	if get("a", 40) != 0 {
		t.Fatal("hot read of a must report zero cold blocks")
	}
	get("b", 40)
	get("c", 40) // 120 > 100: evicts a (LRU)
	if get("a", 40) != 2 {
		t.Fatal("a must have been evicted and reload cold")
	}
	if loads["a"] != 2 || loads["b"] != 1 {
		t.Fatalf("load counts: %v", loads)
	}
	// An entry larger than the whole pool still loads and is served, but
	// the pool never retains more than its budget.
	if get("huge", 500) != 2 {
		t.Fatal("oversized entry must load")
	}
	get("b", 40)
	if loads["huge"] != 1 {
		t.Fatalf("huge loaded %d times before re-request", loads["huge"])
	}
	if get("huge", 500) != 2 {
		t.Fatal("oversized entry must not have stayed resident")
	}
	if p.bytes > 100 {
		t.Fatalf("pool charges %d bytes against a budget of 100", p.bytes)
	}
}

func TestBufferPoolRetriesFailedLoads(t *testing.T) {
	// A failed load (e.g. a transient EMFILE) must not poison the entry
	// for its whole residency: the pool drops it, the next get retries,
	// and the failed entry's cost does not leak into the pool budget.
	p := newPool(100)
	calls := 0
	load := func(*ColumnSet) (*ColumnSet, int, error) {
		calls++
		if calls < 3 {
			return nil, 0, errf("x.rseg", "read: too many open files")
		}
		return fakeSet(10, "v"), 2, nil
	}
	for i := 0; i < 2; i++ {
		if _, _, err := p.get("x", 10, []string{"v"}, load); err == nil {
			t.Fatalf("get %d: want error", i)
		}
		if p.bytes != 0 {
			t.Fatalf("get %d: failed entry left %d bytes accounted", i, p.bytes)
		}
	}
	cs, blocks, err := p.get("x", 10, []string{"v"}, load)
	if err != nil || cs.Col("v") == nil || blocks != 2 {
		t.Fatalf("retry after transient failure: cs=%v blocks=%d err=%v", cs, blocks, err)
	}
	if calls != 3 {
		t.Fatalf("load ran %d times, want one per get until success", calls)
	}
	if _, blocks, _ := p.get("x", 10, []string{"v"}, load); blocks != 0 || calls != 3 {
		t.Fatal("successful load must be cached as usual")
	}
	// A failed growth keeps what is resident: the lanes already decoded
	// still serve, stay charged, and the missing one is retried next time.
	grown := 0
	grow := func(cur *ColumnSet) (*ColumnSet, int, error) {
		if grown++; grown == 1 {
			return nil, 0, errf("x.rseg", "read: too many open files")
		}
		return fakeSet(25, "v", "w"), 2, nil
	}
	if _, _, err := p.get("x", 10, []string{"v", "w"}, grow); err == nil || p.bytes != 10 {
		t.Fatalf("failed growth: err=%v bytes=%d, want an error and the resident 10 bytes", err, p.bytes)
	}
	if _, blocks, _ := p.get("x", 10, []string{"v"}, grow); blocks != 0 || grown != 1 {
		t.Fatal("a failed growth must leave the resident lane serving hits")
	}
	if _, blocks, err := p.get("x", 10, []string{"v", "w"}, grow); err != nil || blocks != 2 || p.bytes != 25 {
		t.Fatalf("growth retry: blocks=%d err=%v bytes=%d, want 2/nil/25", blocks, err, p.bytes)
	}
}

func TestBufferPoolCostsDecodedSize(t *testing.T) {
	noLeaks(t)
	// Entries are charged by what they pin in memory — the decoded lanes
	// and dictionary — not the (much smaller) on-disk size passed as the
	// provisional cost, so the configured budget bounds real memory.
	rows := make([]item.Item, 50)
	for i := range rows {
		rows[i] = obj("s", item.Str(strings.Repeat("x", 100)+fmt.Sprint(i)))
	}
	data, _, err := Encode(rows)
	if err != nil {
		t.Fatal(err)
	}
	img, err := openImage("s.rseg", data)
	if err != nil {
		t.Fatal(err)
	}
	one, err := (*ColumnSet)(nil).grow(img, []string{"s"}) // decoded ≈ 5.8 KiB
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(one.MemBytes() * 3 / 2) // room for one decoded entry, not two
	loads := map[string]int{}
	get := func(key string) {
		t.Helper()
		_, _, err := p.get(key, 10, []string{"s"}, func(cur *ColumnSet) (*ColumnSet, int, error) {
			loads[key]++
			cs, err := cur.grow(img, []string{"s"}) // nominal cost 10
			return cs, 1, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	if p.bytes <= 4096 {
		t.Fatalf("pool accounts %d bytes for a ~5.8 KiB entry", p.bytes)
	}
	get("b")
	get("a")
	// With file-size costing (10+10 bytes) nothing would ever be evicted;
	// with decoded costing, inserting b must push a out of the budget.
	if loads["a"] != 2 {
		t.Fatalf("a loaded %d times, want eviction by b's decoded size and a cold reload", loads["a"])
	}
}

// TestBufferPoolCostsOnlyHeldLanes: an int column pins its tag lane and
// 8 bytes per row, not a slot in every typed lane, and the pool charges
// exactly that on top of the segment's shapes and dictionary.
func TestBufferPoolCostsOnlyHeldLanes(t *testing.T) {
	noLeaks(t)
	const n = 100
	rows := make([]item.Item, n)
	for i := range rows {
		rows[i] = obj("v", item.Int(int64(i)), "s", item.Str(fmt.Sprint(i%7)))
	}
	data, _, err := Encode(rows)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := DecodeColumns("x", data, nil) // shapes and dictionary only
	if err != nil {
		t.Fatal(err)
	}
	img, err := openImage("x", data)
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(1 << 20)
	cs, _, err := p.get("x", 10, []string{"v"}, func(cur *ColumnSet) (*ColumnSet, int, error) {
		cs, err := cur.grow(img, []string{"v"})
		return cs, 1, err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := prefix.MemBytes() + n*(1+8)
	if cs.MemBytes() != want || p.bytes != want {
		t.Fatalf("int column costs %d bytes (pool charges %d), want %d: tags + 8 B/row + shapes/dictionary",
			cs.MemBytes(), p.bytes, want)
	}
}

// writeABC writes n JSON lines with three string fields, so every lane
// leans on the segment dictionary.
func writeABC(t *testing.T, n int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "{\"a\": \"a%d\", \"b\": \"b%d\", \"c\": \"c%d\"}\n", i%11, i%13, i)
	}
	path := filepath.Join(t.TempDir(), "abc.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBufferPoolSharesLanes pins per-segment residency: projections {a,b}
// then {a,c} of one segment leave lanes a, b, c and the dictionary resident
// once each — the second fetch is a miss that decodes only c and reuses
// lane a — so the pool charges exactly what one {a,b,c} decode pins.
func TestBufferPoolSharesLanes(t *testing.T) {
	noLeaks(t)
	path := writeABC(t, 500)
	s := NewStore(0)
	ds, err := s.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ab, blocks, err := ds.FetchBatch(0, []string{"a", "b"})
	if err != nil || blocks == 0 {
		t.Fatalf("cold {a,b}: blocks=%d err=%v, want a miss", blocks, err)
	}
	ac, blocks, err := ds.FetchBatch(0, []string{"a", "c"})
	if err != nil || blocks == 0 {
		t.Fatalf("{a,c} after {a,b}: blocks=%d err=%v, want a miss (lane c was not resident)", blocks, err)
	}
	if ac.Col("a") != ab.Col("a") || ac.Col("b") != ab.Col("b") {
		t.Fatal("the grown snapshot must share the lanes already decoded")
	}
	if ab.Col("c") != nil {
		t.Fatal("growing must not modify the snapshot an earlier fetch returned")
	}
	if _, blocks, err := ds.FetchBatch(0, []string{"b", "c"}); err != nil || blocks != 0 {
		t.Fatalf("{b,c} with a, b, c resident: blocks=%d err=%v, want a hit", blocks, err)
	}
	data, err := os.ReadFile(filepath.Join(ds.Dir, ds.Meta(0).File))
	if err != nil {
		t.Fatal(err)
	}
	abc, err := DecodeColumns("abc.rseg", data, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if s.pool.bytes != abc.MemBytes() || ac.MemBytes() != abc.MemBytes() {
		t.Fatalf("pool charges %d bytes (snapshot %d) for lanes a+b+c and one dictionary, which pin %d",
			s.pool.bytes, ac.MemBytes(), abc.MemBytes())
	}
}

// TestBufferPoolSingleFlight: goroutines fetching overlapping projections
// of one cold segment decode each lane exactly once — every fetch returns
// the very lane the final resident snapshot holds.
func TestBufferPoolSingleFlight(t *testing.T) {
	noLeaks(t)
	path := writeABC(t, 2000)
	s := NewStore(0)
	ds, err := s.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	projections := [][]string{{"a", "b"}, {"b", "c"}, {"a", "c"}, {"c"}}
	const n = 16
	got := make([]*ColumnSet, n)
	var misses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cs, blocks, err := ds.FetchBatch(0, projections[g%len(projections)])
			if err != nil {
				t.Error(err)
				return
			}
			if blocks > 0 {
				misses.Add(1)
			}
			got[g] = cs
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	final, blocks, err := ds.FetchBatch(0, []string{"a", "b", "c"})
	if err != nil || blocks != 0 {
		t.Fatalf("all three lanes must be resident: blocks=%d err=%v", blocks, err)
	}
	for g, cs := range got {
		for _, f := range projections[g%len(projections)] {
			if cs.Col(f) != final.Col(f) {
				t.Fatalf("goroutine %d holds its own decode of lane %s", g, f)
			}
		}
	}
	if m := misses.Load(); m < 1 || m > 3 {
		t.Fatalf("%d fetches read the file, want between 1 and 3 (one per lane at most)", m)
	}
	if s.pool.bytes != final.MemBytes() {
		t.Fatalf("pool charges %d bytes, the resident snapshot pins %d", s.pool.bytes, final.MemBytes())
	}
}
