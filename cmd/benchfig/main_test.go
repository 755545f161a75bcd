package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tinyOptions(t *testing.T) options {
	return options{
		dir:           t.TempDir(),
		objects:       2_000,
		sizes:         []int{500, 1_000},
		budget:        100_000,
		executors:     []int{1, 2},
		scales:        []int{1, 2},
		parallelism:   4,
		executorCores: 2,
		splitSize:     32 << 10,
	}
}

func requireAllOK(t *testing.T, rows []row, figure string) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatalf("figure %s produced no rows", figure)
	}
	for _, r := range rows {
		if r.figure != figure {
			t.Errorf("row tagged %q, want %q", r.figure, figure)
		}
		if r.status != "ok" {
			t.Errorf("%s/%s/%s failed: %s", r.figure, r.engine, r.query, r.status)
		}
		if r.seconds <= 0 {
			t.Errorf("%s/%s/%s has non-positive wall time", r.figure, r.engine, r.query)
		}
	}
}

func TestRunFigure11(t *testing.T) {
	rows, err := figure11(tinyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	requireAllOK(t, rows, "11")
	if len(rows) != 12 { // 3 queries x 4 engines
		t.Errorf("%d rows, want 12", len(rows))
	}
}

func TestRunFigure12(t *testing.T) {
	rows, err := figure12(tinyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	requireAllOK(t, rows, "12")
	if len(rows) != 18 { // 3 queries x 2 sizes x 3 engines
		t.Errorf("%d rows, want 18", len(rows))
	}
}

func TestRunFigure12OOMCliff(t *testing.T) {
	o := tinyOptions(t)
	o.budget = 300 // smaller than the datasets
	rows, err := figure12(o)
	if err != nil {
		t.Fatal(err)
	}
	oom := 0
	for _, r := range rows {
		if r.status == "oom" {
			oom++
			if r.engine == "Rumble" {
				t.Error("Rumble must never hit the single-node OOM cliff")
			}
		}
	}
	if oom == 0 {
		t.Error("tiny budget should produce OOM rows for the single-node engines")
	}
}

// TestFigure12SweepFollowsN runs the command as a user would: -n is the
// base of figure 12's size sweep (n/8 … 2n), and -csv is written whole.
func TestFigure12SweepFollowsN(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "12", "-n", "4000", "-data", dir, "-csv", csvPath}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
	if len(lines) != 45 { // 3 queries x 5 sizes x 3 engines
		t.Fatalf("%d CSV rows, want 45", len(lines))
	}
	var sizes []string
	for _, l := range lines[:15] { // the filter query's sweep
		f := strings.Split(l, ",")
		if f[len(f)-1] != "ok" {
			t.Errorf("row failed: %s", l)
		}
		if f[1] == "Rumble" {
			sizes = append(sizes, f[3])
		}
	}
	if got := strings.Join(sizes, " "); got != "500 1000 2000 4000 8000" {
		t.Errorf("figure 12 sizes at -n 4000 = %s, want 500 1000 2000 4000 8000", got)
	}
	if !strings.Contains(stdout.String(), "figure") {
		t.Errorf("table missing from stdout:\n%s", stdout.String())
	}
}

func TestRunFigure14SpeedupShape(t *testing.T) {
	o := tinyOptions(t)
	o.objects = 4_000
	rows, err := figure14(o)
	if err != nil {
		t.Fatal(err)
	}
	requireAllOK(t, rows, "14")
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// More executors must not be slower by more than noise; with simulated
	// I/O latency 2 executors should be measurably faster than 1.
	if rows[1].seconds > rows[0].seconds*1.05 {
		t.Errorf("no speedup: 1 exec %.3fs, 2 exec %.3fs", rows[0].seconds, rows[1].seconds)
	}
	if rows[0].aggSecs <= 0 {
		t.Error("aggregated task time missing")
	}
}

func TestRunFigure15Linearity(t *testing.T) {
	o := tinyOptions(t)
	o.objects = 8_000
	o.scales = []int{1, 4}
	rows, err := figure15(o)
	if err != nil {
		t.Fatal(err)
	}
	requireAllOK(t, rows, "15")
	// 4x the data should take noticeably more than 1.5x the time and not
	// explode past ~12x (linear within generous noise bounds).
	ratio := rows[1].seconds / rows[0].seconds
	if ratio < 1.5 || ratio > 12 {
		t.Errorf("scaling ratio %.2f outside linear envelope", ratio)
	}
}

func TestRumbleAdapterMatchesBaselines(t *testing.T) {
	o := tinyOptions(t)
	path, err := dataset(o.dir, "confusion", 1_500)
	if err != nil {
		t.Fatal(err)
	}
	engines := sparkEngines(o)
	r := engines[0]
	for _, q := range allQueries {
		want, err := r.Run(q, path)
		if err != nil {
			t.Fatalf("rumble %s: %v", q, err)
		}
		for _, e := range engines[1:] {
			got, err := e.Run(q, path)
			if err != nil {
				t.Fatalf("%s %s: %v", e.Name(), q, err)
			}
			if got.Count != want.Count {
				t.Errorf("%s: %s count %d != rumble %d", q, e.Name(), got.Count, want.Count)
			}
			if len(want.Rows) > 0 && strings.Join(got.Rows, "|") != strings.Join(want.Rows, "|") {
				t.Errorf("%s: %s rows diverge from rumble", q, e.Name())
			}
		}
	}
}

func TestTableAndCSVOutput(t *testing.T) {
	rows := []row{{figure: "11", engine: "Rumble", query: "filter", size: 10, seconds: 0.5, status: "ok"}}
	var tb bytes.Buffer
	printTable(&tb, rows)
	if !strings.Contains(tb.String(), "Rumble") {
		t.Error("table output missing engine")
	}
	var cb bytes.Buffer
	if err := writeCSV(&cb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(cb.String(), "figure,engine,query") {
		t.Error("CSV header missing")
	}
	if !strings.Contains(cb.String(), "11,Rumble,filter,10,0,0.5000") {
		t.Errorf("CSV row malformed: %s", cb.String())
	}
}
