package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestMedianOfBlocks(t *testing.T) {
	// 52 samples: the two oldest are dropped, five blocks of ten remain.
	xs := make([]float64, 52)
	for i := range xs {
		xs[i] = 10
	}
	xs[0], xs[1] = 1000, 1000 // dropped with the remainder
	for i := 12; i < 22; i++ {
		xs[i] = 50 // one noisy block
	}
	bs := blocks(xs, numBlocks)
	if len(bs) != numBlocks || len(bs[0]) != 10 || bs[0][0] != 10 {
		t.Fatalf("blocks = %d blocks of %d starting at %v", len(bs), len(bs[0]), bs[0][0])
	}
	value, spread := overBlocks(xs, median)
	if value != 10 {
		t.Errorf("median over blocks = %v, want 10: one noisy block must not move it", value)
	}
	if spread != 4 {
		t.Errorf("spread = %v, want (50-10)/10", spread)
	}
	if v, _ := overBlocks([]float64{1, 2, 3}, median); v != 2 {
		t.Errorf("fewer samples than blocks: got %v, want the plain median 2", v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: 10..60 covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
		{Name: "a", Start: 200, End: 205, Parent: -1}, // same name, summed
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"op":   (100 - 50 - 10) / 1e6,
		"a":    (30 - 8 + 5) / 1e6,
		"b":    30 / 1e6,
		"c":    30 / 1e6,
		"leaf": 8 / 1e6,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self[%s] = %v ms, want %v", name, got[name], w)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64) []byte {
		t.Helper()
		reddit, confusion := filepath.Join(dir, name+"-r"), filepath.Join(dir, name+"-c")
		if _, err := writeReddit(reddit, 500, seed); err != nil {
			t.Fatal(err)
		}
		if err := writeConfusion(confusion, 500, seed); err != nil {
			t.Fatal(err)
		}
		r, _ := os.ReadFile(reddit)
		c, _ := os.ReadFile(confusion)
		return append(r, c...)
	}
	a, b, c := write("a", 7), write("b", 7), write("c", 8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different files")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same files")
	}
	facts, err := writeReddit(filepath.Join(dir, "sorted"), 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(facts.created); i++ {
		if facts.created[i] < facts.created[i-1] || facts.scores[i] < facts.scores[i-1] {
			t.Fatal("facts are not ascending")
		}
	}
	if facts.scoresAbove(-1000) != 500 || facts.scoresAbove(5000) != 0 {
		t.Error("scoresAbove is wrong at the ends")
	}
}

func TestVerdict(t *testing.T) {
	v := func(x, spread float64) metricValue { return metricValue{Value: x, Spread: spread} }
	for _, c := range []struct {
		a, b   metricValue
		better string
		want   string
	}{
		{v(100, 0.01), v(105, 0.01), "lower", "ok"},
		{v(100, 0.01), v(115, 0.01), "lower", "worse"},
		{v(100, 0.01), v(80, 0.01), "lower", "ok"},
		{v(100, 0.01), v(85, 0.01), "higher", "worse"},
		{v(100, 0.01), v(120, 0.01), "higher", "ok"},
		{v(100, 0.30), v(150, 0.01), "lower", "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.better, got, c.want)
		}
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the tables the program
// prints from naming the same workloads, metrics and units.
func TestSpecMatchesProgram(t *testing.T) {
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metric) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program %v", what, i, got[i], want[i])
			}
		}
	}
	names := make([]metric, len(workloads))
	for i, w := range workloads {
		names[i] = metric{name: w.name}
	}
	same("workloads", spec.Workloads, names)
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayer)
}

// countMetrics must repeat exactly between two runs of one seed: they
// count work, not time.
var countMetrics = []string{"spark.tasks_run", "spark.shuffle_records", "spark.records_read",
	"segment.segments_read", "segment.segments_skipped", "runtime.vector_morsels", "item.result_bytes_per_op"}

// TestQuickRun runs every workload at the -quick sizes, traced, and the
// library workloads a second time.
func TestQuickRun(t *testing.T) {
	rp := runPlan{seed: 1, sizes: quickSizes, workers: 2, dataDir: t.TempDir(),
		minSetups: 1, plainSecs: 0.05, tracedSecs: 0.05, minOps: 20}
	first := map[string]*workloadResult{}
	for _, w := range workloads {
		res, err := runWorkload(w, rp)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2*rp.minOps {
			t.Errorf("%s: correct=%v failed=%d attempted=%d errors=%v", w.name, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
		for _, m := range endToEndMetrics {
			if v, ok := res.EndToEnd[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s: end-to-end %s = %+v", w.name, m.name, v)
			}
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(res.PerLayer), len(perLayer))
		}
		if len(res.spans) == 0 || res.selfMS["replay"] <= 0 {
			t.Errorf("%s: traced run recorded %d spans and no replay", w.name, len(res.spans))
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("%s: result does not marshal: %v", w.name, err)
		}
		first[w.name] = res
	}
	for _, w := range workloads {
		if w.name == "serve_mixed" {
			continue // its per-op averages depend on how far the schedule got
		}
		again, err := runWorkload(w, rp)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range countMetrics {
			a, b := first[w.name].PerLayer[name].Value, again.PerLayer[name].Value
			if a != b {
				t.Errorf("%s: %s = %v, then %v: a count must repeat exactly", w.name, name, a, b)
			}
		}
	}
}
