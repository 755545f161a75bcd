package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads: which way
// each end-to-end metric is better and by what share of the first value it
// may worsen before that counts as a regression.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges b against a for one metric by the relative change in the
// direction that is worse. A pair whose own block spread exceeds the bound
// cannot resolve a change of that size.
func verdict(a, b metricValue, better string, bound float64) string {
	worsening := (b.Value - a.Value) / a.Value
	if better == "higher" {
		worsening = -worsening
	}
	switch {
	case a.Spread > bound || b.Spread > bound:
		return "unresolved"
	case worsening > bound:
		return "worse"
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, both values,
// the relative change and ok / worse / unresolved against the bound. It
// reports whether anything was worse, failed or missing.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bad bool, err error) {
	var spec benchmarkSpec
	var a, b results
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-14s missing from one input\n", wl.name)
			bad = true
			continue
		}
		if ra.Failed+rb.Failed > 0 || !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-14s failed ops: a=%d b=%d (fail_share must be 0 in both)\n", wl.name, ra.Failed, rb.Failed)
			bad = true
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			word := verdict(va, vb, m.Better, m.Bound)
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl.name, m.Name, va.Value, vb.Value, 100*(vb.Value-va.Value)/va.Value, 100*m.Bound, word)
			bad = bad || word == "worse"
		}
	}
	return bad, nil
}
