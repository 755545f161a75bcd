package segment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rumble/internal/datagen"
	"rumble/internal/dfs"
	"rumble/internal/item"
	"rumble/internal/jparse"
)

// noLeaks fails the test when goroutines it started are still running once
// it has finished: every ingest joins its reader and its workers before it
// returns, whatever the outcome.
func noLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the test, %d after:\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// setHook installs the pipeline's test hook for the duration of the test.
func setHook(t *testing.T, h func(event string, n int)) {
	t.Helper()
	testHook = h
	t.Cleanup(func() { testHook = nil })
}

// setWriter installs the segment-file wrapper for the duration of the test.
func setWriter(t *testing.T, wrap func(imageWriter) imageWriter) {
	t.Helper()
	testWriter = wrap
	t.Cleanup(func() { testWriter = nil })
}

// oracleIngest is the serial ingest the pipeline replaced: hash the source
// (whole-file copies), read it again line by line with one decoder per file,
// encode every 4096 rows with the oracle encoder and walk them again for
// the zone maps. It returns the files of the segments directory by name.
func oracleIngest(t *testing.T, source string) map[string][]byte {
	t.Helper()
	splits, err := dfs.ListSplits(source, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var total int64
	for _, sp := range splits {
		io.WriteString(h, filepath.Base(sp.Path))
		h.Write([]byte{0})
		f, err := os.Open(sp.Path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	files := map[string][]byte{}
	m := Manifest{Version: Version, SourceHash: hex.EncodeToString(h.Sum(nil)), SourceBytes: total}
	var pending []item.Item
	flush := func() {
		if len(pending) == 0 {
			return
		}
		data, err := oracleEncode(pending)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seg-%05d.rseg", len(m.Segments))
		files[name] = data
		// The header is magic, version, rows, columns and the payload CRC.
		crc := crc32.ChecksumIEEE(data[len(Magic)+13:])
		m.Segments = append(m.Segments, Meta{File: name, Rows: len(pending), Bytes: int64(len(data)), CRC: crc, Cols: oracleZoneMaps(pending)})
		m.Rows += int64(len(pending))
		pending = pending[:0]
	}
	for _, sp := range splits {
		dec := jparse.NewDecoder()
		err := dfs.ReadLines(sp, nil, func(line []byte) error {
			it, err := dec.Decode(line)
			if err != nil {
				return err
			}
			if pending = append(pending, it); len(pending) == Rows {
				flush()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	flush()
	canonical, err := json.Marshal(m) // Checksum still zero
	if err != nil {
		t.Fatal(err)
	}
	m.Checksum = crc32.ChecksumIEEE(canonical)
	if files[ManifestName], err = json.MarshalIndent(m, "", " "); err != nil {
		t.Fatal(err)
	}
	return files
}

// dirFiles reads every file of dir by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// checkSourceRecord checks the SOURCE.json among an ingest's files: it
// parses, names the checksum of the manifest beside it, and equals a fresh
// stat of the source's parts. Where the platform gives no fingerprint,
// there must be none.
func checkSourceRecord(t *testing.T, source string, files map[string][]byte) {
	t.Helper()
	now := statSource(source)
	data, ok := files[SourceName]
	if now == nil {
		if ok {
			t.Fatalf("%s: %s recorded where the platform gives no fingerprint", source, SourceName)
		}
		return
	}
	if !ok {
		t.Fatalf("%s: no %s beside the manifest (the source never settled?)", source, SourceName)
	}
	var m Manifest
	if err := json.Unmarshal(files[ManifestName], &m); err != nil {
		t.Fatal(err)
	}
	var rec sourceRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("%s: %s does not parse: %v", source, SourceName, err)
	}
	if rec.Manifest != m.Checksum {
		t.Fatalf("%s: %s names manifest %08x, the manifest is %08x", source, SourceName, rec.Manifest, m.Checksum)
	}
	if !now.matches(&fingerprint{Parts: rec.Parts}) {
		t.Fatalf("%s: %s records %+v, a fresh stat gives %+v", source, SourceName, rec.Parts, now.Parts)
	}
}

// siblings lists what sits next to source, besides source itself.
func siblings(t *testing.T, source string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(source))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() != filepath.Base(source) {
			names = append(names, e.Name())
		}
	}
	return names
}

func writeFile(t *testing.T, path string, data []byte) string {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func generated(gen datagen.Generator, n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Write(gen.Next())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// numbered is n small distinct objects, one per line.
func numbered(n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "{\"g\": %d, \"v\": %d, \"s\": \"s%d\"}\n", i%7, i, i%97)
	}
	return buf.Bytes()
}

// handCorpus exercises every line and row rule at once: CRLF and blank
// lines, non-object rows, duplicate keys (a string only a duplicate holds,
// a key only a duplicate-key row holds), mixed-kind columns, decimals,
// doubles, nested values, NUL and non-ASCII strings, a line far longer than
// a small chunk (longLine bytes of it), and no terminator on the last line.
func handCorpus(longLine int) []byte {
	long := strings.Repeat("l", longLine)
	return []byte("{\"a\": 1, \"b\": \"x\"}\r\n" +
		"\n\r\n" +
		"42\n\"just a string\"\n[1, {\"a\": 2}]\nnull\n" +
		"{\"a\": \"first\", \"a\": \"shadowed\", \"only_dup\": 1.5, \"b\": null}\n" +
		"{\"b\": \"y\", \"a\": 2.50, \"c\": {\"n\": [1, 2, {\"d\": 0.1}]}}\n" +
		"{\"a\": 1e3, \"b\": true, \"c\": [], \"d\": -0.0e0}\n" +
		"{\"a\": -9007199254740993, \"b\": false, \"d\": 9007199254740993}\n" +
		"{\"a\": \"z\\u0000nul\", \"b\": \"été\", \"e\": \"\"}\n" +
		"{\"long\": \"" + long + "\", \"a\": 3}\n" +
		"{}\n" +
		"{\"a\": null, \"b\": \"x\", \"b\": \"x\"}\n" +
		"{\"e\": \"tail without newline\"}")
}

func TestIngestMatchesOracle(t *testing.T) {
	noLeaks(t)
	root := t.TempDir()
	sources := map[string]string{
		"reddit":    writeFile(t, filepath.Join(root, "reddit", "r.jsonl"), generated(datagen.NewRedditGenerator(11), 2*Rows+777)),
		"confusion": writeFile(t, filepath.Join(root, "confusion", "c.jsonl"), generated(datagen.NewConfusionGenerator(12), Rows+5)),
		"hand":      writeFile(t, filepath.Join(root, "hand", "h.jsonl"), handCorpus(15000)),
		"empty":     writeFile(t, filepath.Join(root, "empty", "e.jsonl"), nil),
	}
	for _, n := range []int{1, Rows - 1, Rows, Rows + 1, 2 * Rows} {
		name := fmt.Sprintf("rows-%d", n)
		sources[name] = writeFile(t, filepath.Join(root, name, "n.jsonl"), numbered(n))
	}
	// A directory of part files: an empty part, a part without a final
	// newline, a hidden file the scan ignores, rows straddling the parts.
	parts := filepath.Join(root, "parts", "data")
	writeFile(t, filepath.Join(parts, "part-00000"), numbered(Rows-3))
	writeFile(t, filepath.Join(parts, "part-00001"), nil)
	writeFile(t, filepath.Join(parts, "part-00002"), handCorpus(15000))
	writeFile(t, filepath.Join(parts, "part-00003"), generated(datagen.NewRedditGenerator(13), 300))
	writeFile(t, filepath.Join(parts, "_SUCCESS"), []byte("not data"))
	sources["parts"] = parts

	for name, source := range sources {
		want := oracleIngest(t, source)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, chunk := range []int{1, 100, 4000, 64 << 10, ingestChunkSize} {
				ds, st, err := ingest(source, workers, chunk)
				if err != nil {
					t.Fatalf("%s workers=%d chunk=%d: %v", name, workers, chunk, err)
				}
				got := dirFiles(t, Dir(source))
				checkSourceRecord(t, source, got)
				delete(got, SourceName) // stat data: differs between copies of the same bytes
				if len(got) != len(want) {
					t.Fatalf("%s workers=%d chunk=%d: %d files, oracle wrote %d", name, workers, chunk, len(got), len(want))
				}
				for file, data := range want {
					if !bytes.Equal(got[file], data) {
						t.Fatalf("%s workers=%d chunk=%d: %s differs from the oracle's (%d vs %d bytes)",
							name, workers, chunk, file, len(got[file]), len(data))
					}
				}
				if st.Rows != ds.Manifest.Rows || st.Segments != ds.NumSegments() || st.Workers != workers || st.Bytes != ds.Manifest.SourceBytes {
					t.Fatalf("%s: stats %+v disagree with manifest %d rows / %d segments / %d bytes", name, st, ds.Manifest.Rows, ds.NumSegments(), ds.Manifest.SourceBytes)
				}
				if left := siblings(t, source); len(left) != 1 {
					t.Fatalf("%s workers=%d chunk=%d: ingest left %v beside the source", name, workers, chunk, left)
				}
			}
		}
		// What the pipeline returned is what a later process opens.
		ds, err := OpenDataset(source)
		if err != nil {
			t.Fatalf("%s: OpenDataset after ingest: %v", name, err)
		}
		for i := 0; i < ds.NumSegments(); i++ {
			if _, _, err := ds.FetchBatch(i, ds.Meta(i).ColumnNames()); err != nil {
				t.Fatalf("%s: segment %d: %v", name, i, err)
			}
		}
	}
}

// FuzzEncodeMatchesOracle holds the single-pass encoder to the serial one on
// arbitrary rows: same image, same zone maps, and every lane of the image
// still passes the decoder's zone-map check.
func FuzzEncodeMatchesOracle(f *testing.F) {
	f.Add(handCorpus(20)) // small seeds: the fuzzer minimizes what it keeps
	f.Add(numbered(12))
	f.Add(generated(datagen.NewRedditGenerator(3), 6))
	f.Add(generated(datagen.NewConfusionGenerator(4), 3))
	f.Add([]byte("{\"a\":1,\"a\":\"s\"}\n{\"a\":\"s\"}\n{\"a\":\"r\",\"z\":[\"s\"]}\n7\n"))
	f.Add([]byte("{\"n\":1}\n{\"n\":1.0}\n{\"n\":1e0}\n{\"n\":NaN}\n{\"n\":-0.0}\n{\"n\":9223372036854775807}\n"))
	// The string id table: one string in every row of a column, one string
	// in several columns, in a lane and in a duplicate-key row, empty and NUL-bearing strings, and more distinct strings than
	// the smallest table holds.
	f.Add([]byte(strings.Repeat("{\"s\":\"same\",\"n\":1}\n", 20)))
	f.Add([]byte("{\"a\":\"x\",\"b\":\"x\",\"c\":\"x\"}\n{\"c\":\"x\",\"a\":\"y\"}\n"))
	f.Add([]byte("{\"a\":\"x\"}\n{\"b\":\"x\",\"b\":\"w\",\"a\":\"x\"}\n{\"a\":\"w\"}\n"))
	f.Add([]byte("{\"a\":\"\",\"b\":\"\\u0000\",\"c\":\"a\\u0000b\"}\n{\"a\":\"\\u0000\",\"b\":\"\",\"c\":\"a\"}\n"))
	f.Add(numbered(48)) // three times keytab's smallest index
	f.Fuzz(func(t *testing.T, data []byte) {
		var rows []item.Item
		dec := jparse.NewDecoder()
		dfs.Lines(data, func(line []byte) error {
			if it, err := dec.Decode(line); err == nil && len(rows) < 512 { // keeps the oracle, O(rows x columns), quick
				rows = append(rows, it)
			}
			return nil
		})
		want, err := oracleEncode(rows)
		if err != nil {
			t.Fatal(err)
		}
		wantZones, err := json.Marshal(oracleZoneMaps(rows))
		if err != nil {
			t.Fatal(err)
		}
		got, zones, err := Encode(rows)
		if err != nil {
			t.Fatal(err)
		}
		gotZones, _ := json.Marshal(zones)
		if !bytes.Equal(got, want) {
			t.Fatalf("image differs from the oracle's (%d vs %d bytes)", len(got), len(want))
		}
		if !bytes.Equal(gotZones, wantZones) {
			t.Fatalf("zone maps differ:\n got %s\nwant %s", gotZones, wantZones)
		}
		meta := Meta{Cols: zones}
		cs, err := DecodeColumns("fuzz.rseg", got, meta.ColumnNames())
		if err != nil {
			t.Fatal(err)
		}
		for _, cz := range zones {
			if !zoneEqual(zoneOfLaneCol(cs.Col(cz.Name)), cz.Zone) {
				t.Fatalf("column %q: decoded lane disagrees with its zone map %+v", cz.Name, cz.Zone)
			}
		}
	})
}

// TestIngestFirstErrorInScanOrder: two unparseable lines in different
// chunks, many workers, and always the first one's error — with nothing
// left on disk.
func TestIngestFirstErrorInScanOrder(t *testing.T) {
	noLeaks(t)
	var buf bytes.Buffer
	buf.Write(numbered(Rows + 500))
	buf.WriteString("{\"first\": bad}\n")
	buf.Write(numbered(900))
	buf.WriteString("{\"second\": worse}\n")
	buf.Write(numbered(100))
	source := writeFile(t, filepath.Join(t.TempDir(), "bad.jsonl"), buf.Bytes())
	serial := jparseError(t, []byte(`{"first": bad}`))
	for round := 0; round < 20; round++ {
		for _, chunk := range []int{1, 2000, ingestChunkSize} {
			_, _, err := ingest(source, 8, chunk)
			want := errf(source, "ingest: %v", serial).Error()
			if err == nil || err.Error() != want {
				t.Fatalf("chunk=%d: error %v, want %s", chunk, err, want)
			}
			if left := siblings(t, source); len(left) != 0 {
				t.Fatalf("chunk=%d: failed ingest left %v behind", chunk, left)
			}
		}
	}
}

func jparseError(t *testing.T, line []byte) error {
	t.Helper()
	_, err := jparse.Parse(line)
	if err == nil {
		t.Fatalf("%s parses", line)
	}
	return err
}

// TestIngestBoundsRowsInFlight: on a 40-segment source the pipeline never
// holds more parsed rows than the segments its workers are encoding, the
// one being assembled, and the chunks parsed ahead — also when encoding is
// the slow side, so finished segments would pile up behind an unbounded
// window.
func TestIngestBoundsRowsInFlight(t *testing.T) {
	noLeaks(t)
	source := writeFile(t, filepath.Join(t.TempDir(), "big.jsonl"), numbered(40*Rows))
	for _, workers := range []int{1, 2, 4} {
		for _, slowEncode := range []bool{false, true} {
			var held, peak atomic.Int64
			setHook(t, func(event string, n int) {
				if event == "encode" && slowEncode {
					time.Sleep(5 * time.Millisecond)
				}
				if event != "rows" {
					return
				}
				now := held.Add(int64(n))
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
			})
			// 8 KiB chunks hold a few hundred of these rows, so workers+1 of
			// them fit the one segment of slack the bound leaves.
			ds, _, err := ingest(source, workers, 8<<10)
			if err != nil {
				t.Fatal(err)
			}
			if ds.NumSegments() != 40 {
				t.Fatalf("%d segments, want 40", ds.NumSegments())
			}
			if limit := int64(workers+2) * Rows; peak.Load() > limit {
				t.Fatalf("workers=%d slow encode %v: %d rows in flight at the peak, bound %d", workers, slowEncode, peak.Load(), limit)
			}
			if held.Load() != 0 {
				t.Fatalf("workers=%d slow encode %v: %d rows still held after the ingest", workers, slowEncode, held.Load())
			}
		}
	}
}

// TestFirstTouchReadsSourceOnce: one first touch reads every source byte
// exactly once — no separate hashing pass before, no re-hash after.
func TestFirstTouchReadsSourceOnce(t *testing.T) {
	noLeaks(t)
	source := writeFile(t, filepath.Join(t.TempDir(), "once.jsonl"), generated(datagen.NewRedditGenerator(5), Rows+100))
	info, err := os.Stat(source)
	if err != nil {
		t.Fatal(err)
	}
	before := dfs.BytesRead()
	ds, st, err := NewStore(0).OpenStats(source)
	if err != nil || ds == nil || st == nil {
		t.Fatalf("first touch: ds=%v stats=%v err=%v", ds, st, err)
	}
	if got := dfs.BytesRead() - before; got != info.Size() {
		t.Fatalf("first touch read %d bytes of a %d-byte source", got, info.Size())
	}
	if st.Bytes != info.Size() || st.Rows != Rows+100 || st.Segments != 2 {
		t.Fatalf("stats %+v", *st)
	}
	// The dataset in hand is the one a strict open validates.
	opened, err := OpenDataset(source)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Manifest.SourceHash != ds.Manifest.SourceHash || opened.Manifest.Rows != ds.Manifest.Rows {
		t.Fatalf("returned manifest %+v, opened %+v", ds.Manifest, opened.Manifest)
	}
	// Only the call that paid gets the stats.
	if _, st, _ := NewStore(0).OpenStats(source); st != nil {
		t.Fatalf("an open of existing segments reported an ingest: %+v", *st)
	}
}

func TestIngestSwap(t *testing.T) {
	noLeaks(t)
	t.Run("replaces and leaves nothing beside", func(t *testing.T) {
		source := writeFile(t, filepath.Join(t.TempDir(), "d.jsonl"), numbered(100))
		for i := 0; i < 3; i++ {
			if err := Ingest(source); err != nil {
				t.Fatal(err)
			}
		}
		if left := siblings(t, source); len(left) != 1 || left[0] != filepath.Base(Dir(source)) {
			t.Fatalf("beside the source: %v", left)
		}
	})

	t.Run("sweeps stale orphans only", func(t *testing.T) {
		source := writeFile(t, filepath.Join(t.TempDir(), "d.jsonl"), numbered(100))
		old := time.Now().Add(-2 * staleAfter)
		for _, name := range []string{".tmp-111", ".old-222"} {
			writeFile(t, filepath.Join(Dir(source)+name, "seg-00000.rseg"), []byte("orphan"))
			if err := os.Chtimes(Dir(source)+name, old, old); err != nil {
				t.Fatal(err)
			}
		}
		// A staging directory touched just now belongs to a live ingest,
		// and a look-alike of another source is not ours to judge.
		writeFile(t, filepath.Join(Dir(source)+".tmp-live", "seg-00000.rseg"), []byte("live"))
		writeFile(t, filepath.Join(source+"x.segments.tmp-1", "f"), nil)
		os.Chtimes(source+"x.segments.tmp-1", old, old)
		if err := Ingest(source); err != nil {
			t.Fatal(err)
		}
		got := strings.Join(siblings(t, source), " ")
		if want := "d.jsonl.segments d.jsonl.segments.tmp-live d.jsonlx.segments.tmp-1"; got != want {
			t.Fatalf("beside the source: %s, want %s", got, want)
		}
	})

	t.Run("adopts a winner of the same content", func(t *testing.T) {
		source := writeFile(t, filepath.Join(t.TempDir(), "d.jsonl"), numbered(100))
		winner, err := IngestDataset(source) // got there first
		if err != nil {
			t.Fatal(err)
		}
		tmp := Dir(source) + ".tmp-loser"
		writeFile(t, filepath.Join(tmp, ManifestName), []byte("{}"))
		m, err := swapIn(source, tmp, winner.Manifest, nil) // started when nothing was there
		if err != nil {
			t.Fatal(err)
		}
		if m.SourceHash != winner.Manifest.SourceHash {
			t.Fatalf("adopted %+v", m)
		}
		if left := siblings(t, source); len(left) != 1 {
			t.Fatalf("beside the source: %v", left)
		}
		if _, err := OpenDataset(source); err != nil {
			t.Fatalf("the winner's directory no longer opens: %v", err)
		}
		// A directory of other content is not adopted: it is replaced.
		stale := winner.Manifest
		stale.SourceHash = "0000"
		writeFile(t, filepath.Join(tmp, ManifestName), []byte("{}"))
		if _, err := swapIn(source, tmp, stale, nil); err != nil {
			t.Fatal(err)
		}
		if data, _ := os.ReadFile(filepath.Join(Dir(source), ManifestName)); string(data) != "{}" {
			t.Fatalf("manifest after replacing: %s", data)
		}
	})

	t.Run("refuses a winner whose manifest checksum fails", func(t *testing.T) {
		source := writeFile(t, filepath.Join(t.TempDir(), "d.jsonl"), numbered(100))
		winner, err := IngestDataset(source) // got there first...
		if err != nil {
			t.Fatal(err)
		}
		tmp := Dir(source) + ".tmp-loser" // ...with the same content this ingest staged
		for name, data := range dirFiles(t, Dir(source)) {
			writeFile(t, filepath.Join(tmp, name), data)
		}
		editManifest(t, Dir(source), func(m *Manifest) { m.Rows++ }) // ...but was hand-edited since
		m, err := swapIn(source, tmp, winner.Manifest, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !m.sealed() || m.Rows != 100 {
			t.Fatalf("swapIn returned %+v, want this ingest's own manifest", m)
		}
		if left := siblings(t, source); len(left) != 1 {
			t.Fatalf("beside the source: %v", left)
		}
		ds, err := OpenDataset(source)
		if err != nil {
			t.Fatalf("the installed directory does not open: %v", err)
		}
		if rows := fetchAll(t, ds); len(rows) != 100 {
			t.Fatalf("installed dataset holds %d rows, want 100", len(rows))
		}
	})

	t.Run("two stores, one fresh source", func(t *testing.T) {
		for round := 0; round < 10; round++ {
			source := writeFile(t, filepath.Join(t.TempDir(), "d.jsonl"), numbered(Rows+10))
			var wg sync.WaitGroup
			got := make([]*Dataset, 4)
			errs := make([]error, 4)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = NewStore(0).Open(source)
				}()
			}
			wg.Wait()
			for i, ds := range got {
				if errs[i] != nil || ds == nil {
					t.Fatalf("store %d: ds=%v err=%v", i, ds, errs[i])
				}
				if rows := fetchAll(t, ds); len(rows) != Rows+10 {
					t.Fatalf("store %d: %d rows", i, len(rows))
				}
			}
			if left := siblings(t, source); len(left) != 1 {
				t.Fatalf("beside the source: %v", left)
			}
		}
	})
}

// TestIngestWriteFailure: a segment file that cannot be written, in its
// body or its header, fails the ingest with an error naming the source and
// leaves nothing beside the source: no staging directory, no segments.
func TestIngestWriteFailure(t *testing.T) {
	noLeaks(t)
	source := writeFile(t, filepath.Join(t.TempDir(), "w.jsonl"), numbered(3*Rows+10)) // four segments
	for _, header := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			var files atomic.Int32
			setWriter(t, func(w imageWriter) imageWriter {
				if files.Add(1) != 2 {
					return w
				}
				if header {
					return &failingWriter{imageWriter: w, okWrites: -1, failWriteAt: true}
				}
				return &failingWriter{imageWriter: w, okWrites: 0}
			})
			ds, _, err := ingest(source, workers, 64<<10)
			serr, ok := err.(*Error)
			if ds != nil || !ok || serr.Path != source || serr.Msg != "ingest: "+errDiskFull.Error() {
				t.Fatalf("header=%v workers=%d: ds=%v err=%v, want the write error naming %s", header, workers, ds, err, source)
			}
			if left := siblings(t, source); len(left) != 0 {
				t.Fatalf("header=%v workers=%d: beside the source: %v", header, workers, left)
			}
		}
	}
}

// TestIngestContainsPanics: a panic in a parse task, in the assembler, in an
// encode task or in the background rebuild resolves the store entry to a structured error naming
// the source — the scan falls back to raw lines — and leaves no goroutine,
// no staging directory and no half-written segments directory behind.
func TestIngestContainsPanics(t *testing.T) {
	noLeaks(t)
	for _, stage := range []string{"parse", "assemble", "encode"} {
		t.Run(stage, func(t *testing.T) {
			source := writeFile(t, filepath.Join(t.TempDir(), "p.jsonl"), numbered(3*Rows+10)) // two chunks, four segments
			setHook(t, func(event string, n int) {
				if event == stage && n == 1 {
					panic("boom in " + stage)
				}
			})
			s := NewStore(0)
			s.Workers = 4
			for i := 0; i < 2; i++ { // the failure is cached like any other
				ds, err := s.Open(source)
				serr, ok := err.(*Error)
				if ds != nil || !ok || serr.Path != source || !strings.Contains(serr.Msg, "panic: boom in "+stage) {
					t.Fatalf("Open: ds=%v err=%v, want a structured panic error naming %s", ds, err, source)
				}
			}
			if left := siblings(t, source); len(left) != 0 {
				t.Fatalf("beside the source: %v", left)
			}
		})
	}

	t.Run("rebuild", func(t *testing.T) {
		source := writeFile(t, filepath.Join(t.TempDir(), "p.jsonl"), numbered(100))
		if err := Ingest(source); err != nil {
			t.Fatal(err)
		}
		writeFile(t, source, numbered(101)) // stale now
		setHook(t, func(event string, n int) {
			if event == "rebuild" {
				panic("boom in rebuild")
			}
		})
		s := NewStore(0)
		reingests := 0
		s.OnReingest = func() { reingests++ }
		if ds, err := s.Open(source); ds != nil || err != nil {
			t.Fatalf("Open of stale segments: ds=%v err=%v, want nil/nil", ds, err)
		}
		s.WaitRebuilds()
		ds, err := s.Open(source)
		serr, ok := err.(*Error)
		if ds != nil || !ok || serr.Path != source || !strings.Contains(serr.Msg, "panic: boom in rebuild") {
			t.Fatalf("Open after the rebuild panicked: ds=%v err=%v", ds, err)
		}
		if reingests != 0 {
			t.Fatalf("a failed rebuild counted as %d re-ingests", reingests)
		}
		if left := siblings(t, source); len(left) != 1 {
			t.Fatalf("beside the source: %v", left)
		}
	})
}

// BenchmarkIngest ingests Reddit sources, whose strings are nearly all
// distinct, at three sizes, and a confusion source, whose strings repeat.
func BenchmarkIngest(b *testing.B) {
	type source struct {
		name string
		data []byte
	}
	var sources []source
	for _, rows := range []int{Rows, 5 * Rows / 4, 8 * Rows} {
		sources = append(sources, source{fmt.Sprintf("rows=%d", rows), generated(datagen.NewRedditGenerator(9), rows)})
	}
	sources = append(sources, source{fmt.Sprintf("confusion/rows=%d", 5*Rows/4), generated(datagen.NewConfusionGenerator(9), 5*Rows/4)})
	for _, src := range sources {
		path := filepath.Join(b.TempDir(), "bench.jsonl")
		if err := os.WriteFile(path, src.data, 0o644); err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", src.name, workers), func(b *testing.B) {
				b.SetBytes(int64(len(src.data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := ingest(path, workers, ingestChunkSize); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
