package rumble

import (
	"strings"
	"testing"

	"rumble/internal/compiler"
	"rumble/internal/parser"
)

// TestConformancePlansVerify runs the plan verifier over every conformance
// query's analysis result, with the vector backend both off and on: the
// entire known-good corpus must produce invariant-clean plans. Queries that
// fail parsing or static analysis are skipped — those are the wantErr
// static-error cases, which never reach the verifier in production either.
func TestConformancePlansVerify(t *testing.T) {
	for _, vectorize := range []bool{false, true} {
		opts := compiler.Options{Cluster: true, Vectorize: vectorize, Executors: 4}
		for name, c := range conformanceCases {
			m, err := parser.Parse(c.query)
			if err != nil {
				continue
			}
			info, err := compiler.Analyze(m, opts)
			if err != nil {
				continue
			}
			if err := compiler.Verify(m, info); err != nil {
				t.Errorf("%s (vectorize=%v): conformance plan failed verification:\n%v\nquery: %s",
					name, vectorize, err, c.query)
			}
		}
	}
}

// TestConformanceWithVerifyPlans re-runs the conformance table through an
// engine with plan verification (and the vector backend) enabled: turning
// the verifier on must not change a single result. This exercises the
// runtime.Compile hook end to end, the same path RUMBLE_VERIFY_PLANS=1
// takes in the server.
func TestConformanceWithVerifyPlans(t *testing.T) {
	e := New(Config{Parallelism: 4, Executors: 4, Vectorize: true, VerifyPlans: true})
	for name, c := range conformanceCases {
		t.Run(name, func(t *testing.T) {
			out, err := e.QueryJSON(c.query)
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

// TestVerifyJoinSplit corrupts the probe-filter/residual split of a join
// plan by hand: the verifier's join-split rule must re-derive the split
// from the where clause and report each corruption.
func TestVerifyJoinSplit(t *testing.T) {
	const q = `for $o in json-file("o.jsonl")
		for $b in json-file("b.jsonl")
		where $o.x gt 1 and $o.k eq $b.k and $b.z gt 2 and $o.y gt 3
		return [$o.x, $b.z]`
	corruptions := map[string]func(jp *compiler.JoinPlan){
		"build-reading conjunct in the probe filter": func(jp *compiler.JoinPlan) {
			jp.ProbeFilter, jp.Residual = append(jp.ProbeFilter, jp.Residual[0]), jp.Residual[1:]
		},
		"probe-only conjunct ahead of the residual filter": func(jp *compiler.JoinPlan) {
			jp.ProbeFilter, jp.Residual = nil, append(jp.ProbeFilter, jp.Residual...)
		},
		"probe-only conjunct hoisted past a build-reading one": func(jp *compiler.JoinPlan) {
			jp.ProbeFilter, jp.Residual = append(jp.ProbeFilter, jp.Residual[1]), jp.Residual[:1]
		},
		"conjunct dropped": func(jp *compiler.JoinPlan) {
			jp.Residual = jp.Residual[:1]
		},
	}
	for _, vectorize := range []bool{false, true} {
		for name, corrupt := range corruptions {
			m, err := parser.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			info, err := compiler.Analyze(m, compiler.Options{Cluster: true, Vectorize: vectorize})
			if err != nil {
				t.Fatal(err)
			}
			if err := compiler.Verify(m, info); err != nil {
				t.Fatalf("clean plan rejected: %v", err)
			}
			var jp *compiler.JoinPlan
			for _, p := range info.Joins {
				jp = p
			}
			if jp == nil || len(jp.ProbeFilter) != 1 || len(jp.Residual) != 2 {
				t.Fatalf("want one probe-filter and two residual conjuncts, got %+v", jp)
			}
			corrupt(jp)
			err = compiler.Verify(m, info)
			if err == nil || !strings.Contains(err.Error(), "[join-split]") {
				t.Errorf("%s (vectorize=%v): got %v, want a join-split diagnostic", name, vectorize, err)
			}
		}
	}
}
