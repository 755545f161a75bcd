package rumble

import (
	"strings"
	"testing"
)

// TestTupleScopeReentry pins the answers of queries that re-enter tuple
// evaluation while a clause's tuple scope is bound: a recursive function
// whose body is a FLWOR, FLWORs nested in every clause that reads outer
// variables, quantifiers and conditionals inside where, positional for
// and a join head with a residual. Each runs on a Spark-less engine and on
// cluster engines of 1, 2 and 8 executors, all required to agree through
// checkModesAgree (Collect, Stream and the Spark-less engine), and to give
// the pinned answer.
func TestTupleScopeReentry(t *testing.T) {
	cases := []struct{ name, query, want string }{
		{"recursive function over a FLWOR", `
			declare function local:f($n) {
			  if ($n le 0) then 0 else
			  sum(for $x in parallelize(1 to $n)
			      let $y := $x mod 3
			      where $x ne 2
			      group by $y
			      order by $y descending
			      count $c
			      return $c * sum($x) + local:f($n - 2))
			};
			local:f(7)`,
			"209"},
		{"recursive function in a where and an order key", `
			declare function local:depth($n) {
			  if ($n le 1) then 1 else
			  count(for $x in parallelize(1 to $n) where local:depth($x - 1) ge $x mod 3 order by local:depth($n - 1) - $x return $x)
			};
			for $o in parallelize(1 to 6) return [$o, local:depth($o)]`,
			"[1, 1] [2, 1] [3, 2] [4, 3] [5, 4] [6, 5]"},
		{"FLWORs nested in let, where, order by and return", `
			for $o in parallelize(1 to 20)
			let $s := (for $i in 1 to $o mod 4 return $i * $o)
			where exists(for $j in 1 to 3 where $j eq $o mod 3 return $j)
			order by (for $k in (1, 2) where $k eq $o mod 2 return $k)[1], $o descending
			return [$o, $s, (for $m in $s where $m gt $o return $m)]`,
			"[20] [16] [14, 14, 28, 28] [10, 10, 20, 20] [8] [4] [2, 2, 4, 4] [19, 19, 38, 57, 38, 57] [17, 17] [13, 13] [11, 11, 22, 33, 22, 33] [7, 7, 14, 21, 14, 21] [5, 5] [1, 1]"},
		{"some and if inside where", `
			for $o in parallelize(1 to 30)
			where (some $v in 1 to $o mod 5 satisfies $v * 2 eq $o mod 7)
			  and (if ($o mod 2 eq 0) then $o gt 10 else $o lt 20)
			return $o`,
			"9 13 16 18"},
		{"every over a nested FLWOR", `
			for $o in parallelize(1 to 12)
			where every $v in (for $i in 1 to $o where $i mod 4 eq 0 return $i) satisfies $v le 8
			return $o`,
			"1 2 3 4 5 6 7 8 9 10 11"},
		{"for at", `
			for $o at $i in parallelize(("a", "b", "c", "d"))
			for $x at $p in 10 to 12
			where $p ne 2 and $i ne 3
			return $o || $i || "-" || $p || ":" || $x`,
			`"a1-1:10" "a1-3:12" "b2-1:10" "b2-3:12" "d4-1:10" "d4-3:12"`},
		{"join head with a residual", `
			for $a in parallelize(for $i in 1 to 20 return {"k": $i mod 5, "v": $i})
			for $b in parallelize(for $i in 1 to 10 return {"k": $i mod 5, "w": $i})
			where $a.k eq $b.k and $a.v gt $b.w + 6
			order by $a.v, $b.w
			return [$a.v, $b.w]`,
			"[11, 1] [12, 2] [13, 3] [14, 4] [15, 5] [16, 1] [16, 6] [17, 2] [17, 7] [18, 3] [18, 8] [19, 4] [19, 9] [20, 5] [20, 10]"},
		{"predicate and simple map", `
			parallelize(1 to 20)[$$ mod 3 eq 0 and $$ gt 4] ! ($$ * 2, $$)[$$ gt 9]`,
			"12 18 24 12 30 15 36 18"},
	}
	local := New(Config{})
	local.env.Spark = nil
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 8} {
				parallel := New(Config{Parallelism: 4, Executors: w})
				if err := checkModesAgree(t, parallel, local, tc.query, false); err != "" {
					t.Fatalf("executors %d: %s", w, err)
				}
			}
			out, err := local.QueryJSON(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(out, " "); got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}
