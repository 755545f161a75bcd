package rumble

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// sourceChangeQueries are the queries a live engine answers before and
// after its source changes: all three run Vector on a vector engine, so a
// segments engine serves them from segments whenever it trusts them.
func sourceChangeQueries(path string) []string {
	return []string{
		fmt.Sprintf(`count(for $o in json-file(%q) return $o)`, path),
		fmt.Sprintf(`sum(for $o in json-file(%q) return $o.v)`, path),
		fmt.Sprintf(`for $o in json-file(%q) return $o`, path),
	}
}

// answer runs query on eng and renders its items or its error as one string.
func answer(eng *Engine, query string) string {
	out, err := eng.QueryJSON(query)
	if err != nil {
		return "error: " + err.Error()
	}
	return strings.Join(out, "\n")
}

// pastTime is where the source-change tests move the times of the files
// they write: far behind the file system clock, so that no ingest has to
// wait for the clock to tick past them.
var pastTime = time.Now().Add(-time.Hour).Truncate(time.Second)

// writePast writes data to path and moves its times into the past.
func writePast(t *testing.T, path, data string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, pastTime, pastTime); err != nil {
		t.Fatal(err)
	}
}

// sourceChange is one way a source changes under a live engine. setup
// writes the source under dir and returns the path queries read; change
// changes it.
type sourceChange struct {
	name   string
	setup  func(t *testing.T, dir string) string
	change func(t *testing.T, path string)
}

func twoRowFile(t *testing.T, dir string) string {
	path := filepath.Join(dir, "data.jsonl")
	writePast(t, path, "{\"v\": 1}\n{\"v\": 2}\n")
	return path
}

func twoPartDir(t *testing.T, dir string) string {
	path := filepath.Join(dir, "data")
	writePast(t, filepath.Join(path, "part-00000"), "{\"v\": 1}\n{\"v\": 2}\n")
	writePast(t, filepath.Join(path, "part-00001"), "{\"v\": 3}\n")
	return path
}

var sourceChanges = []sourceChange{
	{"append", twoRowFile, func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString("{\"v\": 3}\n"); err != nil {
			t.Fatal(err)
		}
	}},
	{"same-size rewrite", twoRowFile, func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte("{\"v\": 7}\n{\"v\": 8}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"rewrite with the old mtime", twoRowFile, func(t *testing.T, path string) {
		// Size, mtime and inode as recorded: only the change time differs.
		if err := os.WriteFile(path, []byte("{\"v\": 7}\n{\"v\": 8}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, pastTime, pastTime); err != nil {
			t.Fatal(err)
		}
	}},
	{"replace by rename", twoRowFile, func(t *testing.T, path string) {
		next := path + ".next"
		writePast(t, next, "{\"v\": 7}\n{\"v\": 8}\n")
		if err := os.Rename(next, path); err != nil {
			t.Fatal(err)
		}
	}},
	{"part added", twoPartDir, func(t *testing.T, path string) {
		writePast(t, filepath.Join(path, "part-00002"), "{\"v\": 4}\n")
	}},
	{"part removed", twoPartDir, func(t *testing.T, path string) {
		if err := os.Remove(filepath.Join(path, "part-00001")); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestLiveEngineSeesSourceChange: engines that live across a change of
// their source answer what a fresh engine without segments answers, before
// the change and after it — the Spark-less engine, and the cluster, vector
// and vector+segments engines at Executors 1, 2 and 8. A segments engine
// that trusted the segments it validated before the change would still
// answer from them. After the change the segments engines are queried from
// several goroutines at once, so revalidation races the background rebuild;
// once the rebuild is in, they read segments again.
func TestLiveEngineSeesSourceChange(t *testing.T) {
	for _, sc := range sourceChanges {
		t.Run(sc.name, func(t *testing.T) {
			type live struct {
				name string
				eng  *Engine
				path string
			}
			sparkless := New(Config{})
			sparkless.env.Spark = nil
			engines := []live{{name: "spark-less", eng: sparkless}}
			for _, w := range []int{1, 2, 8} {
				engines = append(engines,
					live{name: fmt.Sprintf("cluster x%d", w), eng: New(Config{Parallelism: 2, Executors: w})},
					live{name: fmt.Sprintf("vector x%d", w), eng: New(Config{Parallelism: 2, Executors: w, Vectorize: true})},
					live{name: fmt.Sprintf("vector+segments x%d", w), eng: New(Config{Parallelism: 2, Executors: w, Vectorize: true, Segments: true})})
			}
			// Each engine reads its own copy of the source, so no engine's
			// rebuild swaps a directory another engine is reading.
			root := t.TempDir()
			for i := range engines {
				engines[i].path = sc.setup(t, filepath.Join(root, fmt.Sprint(i)))
			}
			check := func(stage string, concurrent int) {
				t.Helper()
				want := map[string]string{}
				fresh := New(Config{})
				for _, q := range sourceChangeQueries(engines[0].path) {
					want[q] = answer(fresh, q)
				}
				for i, l := range engines {
					queries := sourceChangeQueries(l.path)
					n := 1
					if l.eng.env.Segments != nil {
						n = concurrent
					}
					var wg sync.WaitGroup
					got := make([][]string, n)
					for g := 0; g < n; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for _, q := range queries {
								got[g] = append(got[g], answer(l.eng, q))
							}
						}()
					}
					wg.Wait()
					for g := range got {
						for j, q := range sourceChangeQueries(engines[0].path) {
							if got[g][j] != want[q] {
								t.Fatalf("%s: %s (copy %d) answers %q to %s, a fresh engine without segments %q",
									stage, l.name, i, got[g][j], q, want[q])
							}
						}
					}
				}
			}
			segmentsRead := func() []int64 {
				var n []int64
				for _, l := range engines {
					n = append(n, l.eng.Metrics().SegmentsRead)
				}
				return n
			}
			waitRebuilds := func() {
				for _, l := range engines {
					if l.eng.env.Segments != nil {
						l.eng.env.Segments.WaitRebuilds()
					}
				}
			}

			check("before the change", 1)
			for _, l := range engines {
				sc.change(t, l.path)
			}
			check("after the change", 4)
			waitRebuilds()
			before := segmentsRead()
			check("after the rebuild", 1)
			after := segmentsRead()
			for i, l := range engines {
				if l.eng.env.Segments != nil && after[i] == before[i] {
					t.Errorf("%s: no segment read after the rebuild: the comparison was vacuous", l.name)
				}
			}
		})
	}
}

// TestFreshEngineSkipsSourceHash: an engine opening segments whose source
// is unchanged since the ingest trusts the recorded fingerprint and hashes
// nothing. A touched but unchanged source costs the next fresh engine one
// hash — no re-ingest — and the one after it none.
func TestFreshEngineSkipsSourceHash(t *testing.T) {
	path := twoRowFile(t, t.TempDir())
	query := sourceChangeQueries(path)[0]
	run := func(stage string, hashes int64) {
		t.Helper()
		eng := New(Config{Executors: 2, Vectorize: true, Segments: true})
		if got := answer(eng, query); got != "2" {
			t.Fatalf("%s: answer %q, want 2", stage, got)
		}
		eng.env.Segments.WaitRebuilds()
		m := eng.Metrics()
		if m.SegmentSourceHashes != hashes || m.SegmentsRead == 0 || m.SegmentReingests != 0 {
			t.Fatalf("%s: %d source hashes (want %d), %d segments read, %d re-ingests",
				stage, m.SegmentSourceHashes, hashes, m.SegmentsRead, m.SegmentReingests)
		}
		if stage != "first touch" && m.SegmentIngests != 0 {
			t.Fatalf("%s: %d ingests, want none", stage, m.SegmentIngests)
		}
	}
	run("first touch", 0)
	run("reopen", 0)
	touched := pastTime.Add(time.Minute)
	if err := os.Chtimes(path, touched, touched); err != nil {
		t.Fatal(err)
	}
	run("first open after a touch", 1)
	run("second open after a touch", 0)
}

// TestUnsegmentableSourceRetriesAfterFix: a source that fails to ingest is
// scanned raw, with the raw scan's error; once its file is fixed, the next
// query ingests it and reads segments.
func TestUnsegmentableSourceRetriesAfterFix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.jsonl")
	writePast(t, path, "{\"v\": 1}\nnot json\n")
	query := sourceChangeQueries(path)[1]
	want := answer(New(Config{}), query)
	if !strings.HasPrefix(want, "error: ") {
		t.Fatalf("the raw scan accepts the bad line: %q", want)
	}
	eng := New(Config{Executors: 2, Vectorize: true, Segments: true})
	for i := 0; i < 2; i++ {
		if got := answer(eng, query); got != want {
			t.Fatalf("query %d: %q, want the raw scan's %q", i, got, want)
		}
	}
	if m := eng.Metrics(); m.SegmentsRead != 0 || m.SegmentIngests != 0 {
		t.Fatalf("an unparseable source read %d segments, built %d", m.SegmentsRead, m.SegmentIngests)
	}
	writePast(t, path, "{\"v\": 1}\n{\"v\": 2}\n{\"v\": 3}\n")
	if got := answer(eng, query); got != "6" {
		t.Fatalf("after the fix: %q, want 6", got)
	}
	if m := eng.Metrics(); m.SegmentsRead == 0 || m.SegmentIngests != 1 {
		t.Fatalf("after the fix: %d segments read, %d ingests, want the fixed source ingested and read", m.SegmentsRead, m.SegmentIngests)
	}
}
