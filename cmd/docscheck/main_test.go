package main

import (
	"os"
	"strings"
	"testing"
)

// TestCookbookFresh runs the freshness check against the committed
// cookbook, so a compiler change that alters plans fails `go test` until
// the docs are regenerated (go run ./cmd/docscheck -update).
func TestCookbookFresh(t *testing.T) {
	data, err := os.ReadFile("../../docs/query-cookbook.md")
	if err != nil {
		t.Fatal(err)
	}
	_, drift, err := Process(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) > 0 {
		for _, d := range drift {
			t.Errorf("stale explain block for query:\n%s\n--- documented ---\n%s--- regenerated ---\n%s",
				d.Query, d.Old, d.New)
		}
		t.Error("run `go run ./cmd/docscheck -update` to refresh docs/query-cookbook.md")
	}
}

// TestObservabilityFresh does the same for the one executed block of
// docs/observability.md: the first-touch ingest note on a scan line.
func TestObservabilityFresh(t *testing.T) {
	data, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	if _, drift, err := Process(string(data)); err != nil || len(drift) > 0 {
		t.Fatalf("docs/observability.md: err=%v, %d stale block(s); run `go run ./cmd/docscheck -update docs/observability.md`", err, len(drift))
	}
}

// TestProcessSegmentsFence pins the segments fence: the document's jsonl
// blocks become files no engine has read, so the analyzed run pays — and
// notes — their first-touch ingest, every time the check runs.
func TestProcessSegmentsFence(t *testing.T) {
	doc := "```jsonl d\n{\"v\": 1}\n{\"v\": 2}\n```\n" +
		"```jsoniq\ncount(for $o in collection(\"d\") where $o.v gt 1 return $o)\n```\n```explain analyze segments\n```\n"
	for i := 0; i < 2; i++ {
		out, _, err := Process(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "; ingest=?ms rows=2 segments=1 workers=2)") {
			t.Fatalf("run %d: no ingest note on the scan line:\n%s", i, out)
		}
	}
}

// TestProcessDetectsDrift pins the checker itself: a stale plan is
// reported and rewritten, a fresh one passes untouched.
func TestProcessDetectsDrift(t *testing.T) {
	doc := "# t\n\n```jsoniq\n1 + 2\n```\n```explain\nstale\n```\n"
	out, drift, err := Process(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 1 {
		t.Fatalf("drift = %d, want 1", len(drift))
	}
	// The rewritten document must be fresh.
	out2, drift2, err := Process(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(drift2) != 0 || out2 != out {
		t.Fatalf("rewritten doc still drifts: %v", drift2)
	}
}

// TestProcessVectorizeFence pins that the vectorize fence actually flips
// the engine: the same pipeline explains to Vector under it and to
// DataFrame without it.
func TestProcessVectorizeFence(t *testing.T) {
	q := "for $o in json-file(\"d.jsonl\")\nwhere $o.v gt 1\nreturn $o.v"
	doc := "```jsoniq\n" + q + "\n```\n```explain vectorize\n```\n" +
		"```jsoniq\n" + q + "\n```\n```explain\n```\n"
	out, _, err := Process(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "flwor [Vector x4]") {
		t.Errorf("vectorize fence produced no Vector plan:\n%s", out)
	}
	if !strings.Contains(out, "flwor [DataFrame]") {
		t.Errorf("plain fence produced no DataFrame plan:\n%s", out)
	}
}

// TestProcessAnalyzeFence pins the explain-analyze fence: the query is
// actually executed (live row counts appear), every wall-clock figure is
// masked to ?ms so reruns are stable, and drift detection still bites on
// a stale row count.
func TestProcessAnalyzeFence(t *testing.T) {
	doc := "```jsoniq\ncount(parallelize(1 to 100))\n```\n```explain analyze\nstale\n```\n"
	out, drift, err := Process(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 1 {
		t.Fatalf("drift = %d, want 1", len(drift))
	}
	if !strings.Contains(out, "out=100") || !strings.Contains(out, "-- result: 1 rows") {
		t.Errorf("analyze fence carries no live statistics:\n%s", out)
	}
	if !strings.Contains(out, "?ms") {
		t.Errorf("analyze fence lost its timing placeholders:\n%s", out)
	}
	if timingRE.MatchString(out) {
		t.Errorf("unmasked timing survived in:\n%s", out)
	}
	// A rerun of the regenerated document is deterministic: same counts,
	// same masks, no drift.
	out2, drift2, err := Process(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(drift2) != 0 || out2 != out {
		t.Fatalf("regenerated analyze block still drifts: %v", drift2)
	}
}
