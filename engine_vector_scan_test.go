package rumble

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumble/internal/item"
)

// writeScanFile writes n JSON-Lines objects {"v": i, "g": i mod 7} under
// dir and returns the path and the lines.
func writeScanFile(t *testing.T, dir string, n int) (string, []string) {
	t.Helper()
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"v": %d, "g": %d}`, i, i%7)
	}
	path := filepath.Join(dir, "scan.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, lines
}

// TestVectorScanExplainAnalyzeRawSource pins what explain analyze reports
// for a raw-file vector scan without segments: the json-file source line
// counts every record once, in one batch, and the for and where lines count
// the scan's morsels — at one worker and at two.
func TestVectorScanExplainAnalyzeRawSource(t *testing.T) {
	path, _ := writeScanFile(t, t.TempDir(), 2500)
	q := fmt.Sprintf(`for $o in json-file(%q) where $o.v mod 3 eq 0 return $o.g`, path)
	for _, workers := range []int{1, 2} {
		eng := New(Config{Parallelism: 2, Executors: workers, Vectorize: true})
		plan, err := eng.ExplainAnalyze(q)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, want := range []string{
			"flwor [Vector",
			"call json-file/1 [RDD]  (out=2500 batches=1 ",
			"for $o  (in=2500 out=2500 batches=3 ",
			"where  (in=2500 out=834 batches=3 ",
			"-- result: 834 rows",
		} {
			if !strings.Contains(plan, want) {
				t.Errorf("workers=%d: plan lacks %q:\n%s", workers, want, plan)
			}
		}
	}
}

// TestVectorScanSourcesAgree runs every way a vector pipeline can be handed
// its input — a json-file path bound by let or by a declared variable,
// collection() of a file, of an in-memory sequence or of an unregistered
// name, a path that is not a string, and a source that does not parse — in
// vector mode with segments on and off at one, two and eight workers. Each
// answer must equal the tuple pipeline's items, or its exact error text; a
// segment-enabled engine must read segments exactly when the source is a
// parseable file.
func TestVectorScanSourcesAgree(t *testing.T) {
	dir := t.TempDir()
	path, lines := writeScanFile(t, dir, 2500)
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"v\": 1, \"g\": 2}\n{\"v\": 2 \"g\": 3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	register := func(eng *Engine) {
		eng.RegisterCollection("file", path)
		if err := eng.RegisterJSON("mem", lines); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name, query string
		vector      bool // the statement's root is the vector pipeline
		segments    bool // a segment store serves the scan
		wantErr     bool
	}{
		{name: "let-bound path", query: fmt.Sprintf(`let $p := %q return for $o in json-file($p) where $o.v lt 5 return $o.g`, path), segments: true},
		{name: "declared path", query: fmt.Sprintf(`declare variable $p := %q; for $o in json-file($p) where $o.v lt 5 return $o.g`, path), vector: true, segments: true},
		{name: "collection of a file", query: `for $o in collection("file") where $o.g eq 3 return $o.v`, vector: true, segments: true},
		{name: "collection of a file, positional", query: `for $o at $i in collection("file") where $i mod 1000 eq 0 return $o.v`, vector: true, segments: true},
		{name: "collection of a file, grouped", query: `for $o in collection("file") group by $g := $o.g return {"g": $g, "n": count($o)}`, vector: true, segments: true},
		{name: "collection in memory", query: `for $o in collection("mem") where $o.g eq 3 return $o.v`, vector: true},
		{name: "unregistered collection", query: `for $o in collection("nope") return $o.v`, vector: true, wantErr: true},
		{name: "object path", query: `for $o in json-file({"a": 1}) return $o.v`, vector: true, wantErr: true},
		{name: "number path", query: `for $o in json-file(42) return $o.v`, vector: true, wantErr: true},
		{name: "unparseable source", query: fmt.Sprintf(`for $o in json-file(%q) where $o.v lt 3 return $o.g`, bad), vector: true, wantErr: true},
	}
	tuple := New(Config{Parallelism: 2, Executors: 2})
	register(tuple)
	for _, segs := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			eng := New(Config{Parallelism: 2, Executors: workers, Vectorize: true, Segments: segs})
			register(eng)
			for _, tc := range cases {
				label := fmt.Sprintf("%s (segments=%v workers=%d)", tc.name, segs, workers)
				ref, err := tuple.Compile(tc.query)
				if err != nil {
					t.Fatalf("%s: compile (tuple): %v", label, err)
				}
				wantItems, wantErr := streamAll(ref)
				if (wantErr != nil) != tc.wantErr {
					t.Fatalf("%s: tuple pipeline error = %v, want error %v", label, wantErr, tc.wantErr)
				}
				st, err := eng.Compile(tc.query)
				if err != nil {
					t.Fatalf("%s: compile (vector): %v", label, err)
				}
				if tc.vector && st.Mode() != "Vector" {
					t.Fatalf("%s: mode = %s, want Vector", label, st.Mode())
				}
				eng.ResetMetrics()
				gotItems, gotErr := streamAll(st)
				switch {
				case wantErr != nil:
					if gotErr == nil || gotErr.Error() != wantErr.Error() {
						t.Errorf("%s: error = %v, want %q", label, gotErr, wantErr)
					}
				case gotErr != nil:
					t.Errorf("%s: %v", label, gotErr)
				default:
					if got, want := item.SerializeSequence(gotItems), item.SerializeSequence(wantItems); got != want {
						t.Errorf("%s: items differ\nvector:\n%.300s\ntuple:\n%.300s", label, got, want)
					}
				}
				if read := eng.Metrics().SegmentsRead > 0; read != (segs && tc.segments) {
					t.Errorf("%s: segments read = %v, want %v", label, read, segs && tc.segments)
				}
			}
		}
	}
}
