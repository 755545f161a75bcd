package rumble

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"rumble/internal/datagen"
)

// checkModesAgree runs one query three ways — Collect on the cluster engine
// (the DataFrame plan when the statement is parallel), Stream on that same
// statement (the local tuple pipeline) and a Spark-less engine — and
// requires identical items or the identical error text, which it returns
// ("" when the query produced items) so a suite whose queries must succeed
// can say so. unordered compares the items as a multiset: a group-by without
// a total order downstream emits its groups in backend order.
func checkModesAgree(t *testing.T, parallel, local *Engine, q string, unordered bool) (agreedErr string) {
	t.Helper()
	toJSON := func(items []Item, err error) ([]string, string) {
		if err != nil {
			return nil, err.Error()
		}
		out := make([]string, len(items))
		for i, it := range items {
			out[i] = string(it.AppendJSON(nil))
		}
		if unordered {
			sort.Strings(out)
		}
		return out, ""
	}
	st, err := parallel.Compile(q)
	if err != nil {
		if _, lerr := local.Compile(q); lerr == nil || lerr.Error() != err.Error() {
			t.Errorf("compile diverges: cluster %v, local %v\nquery: %s", err, lerr, q)
		}
		return err.Error()
	}
	collected, cerr := toJSON(st.Collect())
	var streamedItems []Item
	serr := st.Stream(func(it Item) error {
		streamedItems = append(streamedItems, it)
		return nil
	})
	streamed, serrText := toJSON(streamedItems, serr)
	localOut, lerr := toJSON(local.Query(q))
	if cerr != serrText || cerr != lerr {
		t.Errorf("errors diverge:\ncollect: %q\nstream:  %q\nlocal:   %q\nquery: %s", cerr, serrText, lerr, q)
		return cerr
	}
	if cerr != "" {
		return cerr
	}
	if !reflect.DeepEqual(collected, streamed) || !reflect.DeepEqual(collected, localOut) {
		t.Errorf("results diverge (%s):\ncollect %d items: %.300v\nstream  %d items: %.300v\nlocal   %d items: %.300v\nquery: %s",
			st.Mode(), len(collected), collected, len(streamed), streamed, len(localOut), localOut, q)
	}
	return ""
}

// TestDataFrameGroupEmitOrderPinned pins the order a DataFrame-mode group-by
// emits its groups in: it follows from the exchange key bytes (each key's
// item.AppendSortKey encoding, the one canonical key encoder joins and the
// vector backend use too), their FNV-1a hash and the partition count, and a
// change to any of them must fail here rather than reshuffle user output.
func TestDataFrameGroupEmitOrderPinned(t *testing.T) {
	e := New(Config{Parallelism: 4, Executors: 4})
	cases := []struct{ query, want string }{
		{`for $x in parallelize((0.0, -0.0, 1, 1.0, 9007199254740993, 9007199254740992, "a", null, true))
		  group by $k := $x return $k`,
			`[9007199254740992 true "a" 0 1 9007199254740993 null]`},
		{`for $x in parallelize(1 to 30) group by $a := $x mod 3, $b := $x mod 2 return [$a, $b, sum($x)]`,
			`[[1, 1, 65] [0, 1, 75] [1, 0, 80] [0, 0, 90] [2, 0, 70] [2, 1, 85]]`},
	}
	for _, c := range cases {
		st, err := e.Compile(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode() != "DataFrame" {
			t.Fatalf("mode %s, want DataFrame\nquery: %s", st.Mode(), c.query)
		}
		if got := fmt.Sprint(run(t, e, c.query)); got != c.want {
			t.Errorf("group emit order moved:\ngot  %s\nwant %s\nquery: %s", got, c.want, c.query)
		}
	}
}

// chainGen draws one FLWOR clause chain over the messy Reddit objects of
// internal/datagen from the clause kinds both tuple pipelines implement.
// It keeps every chain comparable across backends: at most one clause may
// raise a dynamic error and each such expression raises one fixed text
// (a failing cluster stage reports its lowest failing partition's error,
// and how the rows are partitioned, not the stream order, decides which
// error that is); a count clause never follows a group-by whose groups have
// not been put in a total order since; and a chain groups at most once, so
// grouping keys are single items by construction.
type chainGen struct {
	rng       *rand.Rand
	sb        strings.Builder
	lets      []string // let- and for-bound scalar variables in scope, besides $o
	keys      []string // grouping keys, once grouped
	grouped   bool
	unordered bool // group emit order is visible downstream
	risky     bool // an error-capable clause has been drawn
}

func (g *chainGen) pick(options ...string) string { return options[g.rng.Intn(len(options))] }

// scalar draws an expression over one object $o that yields at most one
// atomic item of mixed kinds: number, string, boolean, null or nothing.
func (g *chainGen) scalar() string {
	return g.pick(`$o.score mod 5`, `string-length($o.body) mod 4`, `$o.controversiality`,
		`$o.created_utc idiv 31536000`, `$o.subreddit`, `substring($o.author, 1, 5)`,
		`$o.edited`, `$o.distinguished`, `$o.score_hidden`, `($o.gildings.gid_1, $o.gildings, 0)[1]`,
		`(if ($o.edited instance of boolean) then "never" else $o.edited - $o.created_utc)`)
}

// riskyKey draws a key expression that fails on some objects, always with
// the same text: a two-item sequence or an object where an atomic is due.
func (g *chainGen) riskyKey() string {
	g.risky = true
	return g.pick(`$o.media.dims[]`, `$o.gildings`)
}

func (g *chainGen) clause() {
	w := &g.sb
	if g.grouped {
		switch g.rng.Intn(5) {
		case 0:
			fmt.Fprintf(w, " where count($o) ge %d", 1+g.rng.Intn(3))
		case 1:
			fmt.Fprintf(w, " let $o := %s", g.pick(`$o[1]`, `count($o)`, `$o[$$.score gt 0]`))
		case 2:
			v := fmt.Sprintf("$l%d", len(g.lets))
			fmt.Fprintf(w, " let %s := %s", v, g.pick(`sum($o.score)`, `count($o)`, `max($o.created_utc)`))
			g.lets = append(g.lets, v)
		case 3:
			// A total order over the groups: every key, in some direction.
			w.WriteString(" order by ")
			for i, k := range g.keys {
				if i > 0 {
					w.WriteString(", ")
				}
				w.WriteString(k + g.pick("", " descending", " empty greatest", " descending empty greatest"))
			}
			g.unordered = false
		case 4:
			if !g.unordered {
				v := fmt.Sprintf("$l%d", len(g.lets))
				fmt.Fprintf(w, " count %s", v)
				g.lets = append(g.lets, v)
			}
		}
		return
	}
	switch g.rng.Intn(9) {
	case 0:
		v := fmt.Sprintf("$l%d", len(g.lets))
		fmt.Fprintf(w, " let %s := %s", v, g.scalar())
		g.lets = append(g.lets, v)
	case 1:
		// Shadow the for variable with a narrower object.
		w.WriteString(` let $o := {"score": $o.score, "body": $o.body, "subreddit": $o.subreddit, "edited": $o.edited, "created_utc": $o.created_utc, "media": $o.media}`)
	case 2:
		cond := g.pick(`$o.score gt 500`, `$o.edited instance of boolean`, `exists($o.media)`,
			`string-length($o.subreddit) gt 6`, `empty($o.distinguished)`, `$o.score mod 3 eq 0`)
		if !g.risky && g.rng.Intn(6) == 0 {
			g.risky = true
			cond = `10 idiv $o.controversiality gt 1`
		}
		w.WriteString(" where " + cond)
	case 3:
		v := fmt.Sprintf("$l%d", len(g.lets))
		fmt.Fprintf(w, " for %s%s in %s", v, g.pick("", " allowing empty"),
			g.pick(`$o.media.dims[]`, `subsequence(tokenize($o.body, " "), 1, 2)`, `(1, 2)[$$ le $o.controversiality]`))
		g.lets = append(g.lets, v)
	case 4:
		v, p := fmt.Sprintf("$l%d", len(g.lets)), fmt.Sprintf("$l%d", len(g.lets)+1)
		fmt.Fprintf(w, " for %s%s at %s in %s", v, g.pick("", " allowing empty"), p,
			g.pick(`$o.media.dims[]`, `subsequence(tokenize($o.body, " "), 2, 3)`))
		g.lets = append(g.lets, v, p)
	case 5:
		v := fmt.Sprintf("$l%d", len(g.lets))
		fmt.Fprintf(w, " count %s", v)
		g.lets = append(g.lets, v)
	case 6:
		w.WriteString(" order by ")
		n := 1 + g.rng.Intn(2)
		for i := 0; i < n; i++ {
			if i > 0 {
				w.WriteString(", ")
			}
			key := g.scalar()
			if !g.risky && g.rng.Intn(8) == 0 {
				key = g.riskyKey()
			}
			w.WriteString(key + g.pick("", " descending", " empty greatest", " ascending empty least"))
		}
		if g.rng.Intn(3) == 0 {
			// A bounded sort (compiler.Info.TopK) on the tuple and
			// DataFrame paths, its count readable by the return.
			v := fmt.Sprintf("$l%d", len(g.lets))
			fmt.Fprintf(w, " count %s where %s le %s", v, v, g.pick("0", "1", "3", "1000000000000000"))
			g.lets = append(g.lets, v)
		}
	default:
		// Group once: by an existing variable, by fresh keys, or both, the
		// second fresh key reading the first.
		w.WriteString(" group by ")
		if len(g.lets) > 0 && g.rng.Intn(2) == 0 {
			k := g.lets[g.rng.Intn(len(g.lets))]
			w.WriteString(k + ", ")
			g.keys = append(g.keys, k)
		}
		key := g.scalar()
		if !g.risky && g.rng.Intn(8) == 0 {
			key = g.riskyKey()
		}
		fmt.Fprintf(w, "$k1 := %s", key)
		g.keys = append(g.keys, "$k1")
		if g.rng.Intn(3) == 0 {
			w.WriteString(`, $k2 := ($k1 instance of string, $o.score gt 0)[1]`)
			g.keys = append(g.keys, "$k2")
		}
		g.grouped, g.unordered = true, true
	}
}

// generateChain returns the query text of one chain over the file at path
// and whether its result order depends on the backend.
func generateChain(seed int64, path string) (query string, unordered bool) {
	g := &chainGen{rng: rand.New(rand.NewSource(seed))}
	if g.rng.Intn(4) == 0 {
		fmt.Fprintf(&g.sb, "for $o at $l0 in json-file(%q)", path)
		g.lets = append(g.lets, "$l0")
	} else {
		fmt.Fprintf(&g.sb, "for $o in json-file(%q)", path)
	}
	for n := 1 + g.rng.Intn(6); n > 0; n-- {
		g.clause()
	}
	// The return clause reads each variable whole, only counted, or not at
	// all, so a group-by carries all three kinds.
	g.sb.WriteString(" return [")
	isKey := map[string]bool{}
	for _, k := range g.keys {
		isKey[k] = true
		g.sb.WriteString(k + ", ")
	}
	for _, v := range g.lets {
		if isKey[v] {
			continue
		}
		switch g.rng.Intn(3) {
		case 0:
			g.sb.WriteString(v + ", ")
		case 1:
			fmt.Fprintf(&g.sb, "count(%s), ", v)
		}
	}
	g.sb.WriteString(g.pick(`count($o)`, `$o.id`, `count($o), sum($o.score)`, `"-"`) + "]")
	return g.sb.String(), g.unordered
}

// writeRedditFile writes n generated Reddit objects as JSON Lines.
func writeRedditFile(tb testing.TB, n int) string {
	tb.Helper()
	gen := datagen.NewRedditGenerator(11)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.Write(gen.Next())
		sb.WriteByte('\n')
	}
	path := filepath.Join(tb.TempDir(), "reddit.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// chainEngines returns the cluster engine (several partitions per file) and
// the Spark-less engine the chains are compared on.
func chainEngines() (parallel, local *Engine) {
	parallel = New(Config{Parallelism: 4, Executors: 4, SplitSize: 16 << 10})
	local = New(Config{})
	local.env.Spark = nil
	return parallel, local
}

// TestGeneratedClauseChainsAgree is the data-independence invariant over
// generated plans: a few hundred seeded clause chains, each one statement
// run through Collect (the cluster steps) and Stream (the local pipeline),
// plus a Spark-less engine, must agree on every item or on the error text.
// A failure prints the query.
func TestGeneratedClauseChainsAgree(t *testing.T) {
	path := writeRedditFile(t, 400)
	parallel, local := chainEngines()
	modes := map[string]int{}
	succeeded := 0
	for seed := int64(0); seed < 300; seed++ {
		q, unordered := generateChain(seed, path)
		if st, err := parallel.Compile(q); err == nil {
			modes[st.Mode()]++
		}
		if checkModesAgree(t, parallel, local, q, unordered) == "" {
			succeeded++
		}
	}
	if modes["DataFrame"] < 250 {
		t.Errorf("generated chains compile to %v: the DataFrame plan is hardly exercised", modes)
	}
	// Agreed errors are allowed here (a fifth of the chains draw a risky
	// clause), but a suite of nothing but errors would compare nothing.
	if succeeded < 200 {
		t.Errorf("only %d of 300 generated chains returned items", succeeded)
	}
}

// FuzzClauseChainsAgree lets the fuzzer pick the chain seeds.
func FuzzClauseChainsAgree(f *testing.F) {
	path := writeRedditFile(f, 200)
	parallel, local := chainEngines()
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		q, unordered := generateChain(seed, path)
		checkModesAgree(t, parallel, local, q, unordered)
	})
}

// joinConjuncts are the extra where conjuncts a generated join draws from,
// none of which can raise an error: probe-only, build-only and pair
// predicates over $o (a Reddit object) and $s (a subreddit row).
var joinConjuncts = []string{
	`$o.score gt 500`, `$o.edited instance of boolean`, `$o.score mod 3 eq 0`,
	`string-length($o.body) gt 40`, `exists($o.media)`, `$o.controversiality eq 0`,
	`empty($o.distinguished)`,
	`$s.rank gt 3`, `$s.topic ne "topic1"`, `$s.rank mod 2 eq 0`,
	`$o.score gt $s.rank * 150`, `($o.controversiality + $s.rank) mod 2 eq 0`,
	`$s.topic eq "topic" || string($o.controversiality)`,
}

// riskyJoinConjuncts each raise one fixed text on some rows or pairs: a
// probe-only, a build-only and a pair predicate.
var riskyJoinConjuncts = []string{
	`100 idiv ($o.score mod 97) gt 0`,
	`100 idiv ($s.rank - 3) gt 0`,
	`($o.score + $s.rank) idiv ($s.rank mod 4) ge 0`,
}

// generateJoin returns one two-for equi-join of the Reddit file at reddit
// with the subreddit rows at subs: one eq key on the subreddit name and
// zero to three extra conjuncts, in random and-spine order, at most one of
// them risky. A risky conjunct follows every eq over both variables, which
// the join may take as a key: the nested loop would evaluate it on pairs
// such a key drops, and a hash join (probe filter or not) never forms them.
func generateJoin(seed int64, reddit, subs string) string {
	rng := rand.New(rand.NewSource(seed))
	pick := func(options []string) string { return options[rng.Intn(len(options))] }
	conjs := []string{pick([]string{`$o.subreddit eq $s.name`, `$s.name eq $o.subreddit`})}
	risky := ""
	for n := rng.Intn(4); n > 0; n-- {
		if risky == "" && rng.Intn(4) == 0 {
			risky = pick(riskyJoinConjuncts)
			continue
		}
		conjs = append(conjs, pick(joinConjuncts))
	}
	rng.Shuffle(len(conjs), func(i, j int) { conjs[i], conjs[j] = conjs[j], conjs[i] })
	if risky != "" {
		after := 0
		for i, c := range conjs {
			if strings.Contains(c, " eq ") && strings.Contains(c, "$o") && strings.Contains(c, "$s") {
				after = i + 1
			}
		}
		conjs = slices.Insert(conjs, after+rng.Intn(len(conjs)-after+1), risky)
	}
	return fmt.Sprintf("for $o in json-file(%q) for $s in json-file(%q) where %s return %s",
		reddit, subs, strings.Join(conjs, " and "),
		pick([]string{`[$o.id, $s.rank]`, `{"id": $o.id, "topic": $s.topic, "score": $o.score}`, `$o.id`}))
}

// writeSubredditRows writes the join's build side: eight of the generated
// subreddits (the other four match nothing) and a second "pics" row.
func writeSubredditRows(tb testing.TB) string {
	tb.Helper()
	var sb strings.Builder
	for i, name := range append(slices.Clip(datagen.Subreddits[:8]), "pics") {
		fmt.Fprintf(&sb, "{\"name\": %q, \"rank\": %d, \"topic\": \"topic%d\"}\n", name, i+1, i%3)
	}
	path := filepath.Join(tb.TempDir(), "subreddits.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// joinedEngines names the engines of joinEngines in the order a join is
// checked on them.
var joinedEngines = []string{"cluster", "vector", "vector x1", "vector x8", "vector+segments"}

// joinEngines returns the nested-loop reference (nestedLoop) and the
// joined engines a generated join must agree with: the cluster engine,
// whose statement runs the DataFrame join on Collect and the local join on
// Stream, and the vector engine over the raw file (at 4, 1 and 8 morsel
// workers) and over segments.
func joinEngines() (nested *Engine, joined map[string]*Engine) {
	cfg := Config{Parallelism: 4, Executors: 4, SplitSize: 16 << 10}
	nested = nestedLoop(New(Config{Parallelism: 4, Executors: 4, SplitSize: 16 << 10}))
	vcfg, scfg := cfg, cfg
	vcfg.Vectorize = true
	scfg.Vectorize, scfg.Segments = true, true
	v1, v8 := vcfg, vcfg
	v1.Executors, v8.Executors = 1, 8
	return nested, map[string]*Engine{"cluster": New(cfg), "vector": New(vcfg), "vector x1": New(v1),
		"vector x8": New(v8), "vector+segments": New(scfg)}
}

// checkJoinAgrees runs one generated join on every joined engine and
// requires the nested loop's items (as a multiset: the shuffle join emits
// in partition order) or its error text. It returns the nested loop's
// outcome.
func checkJoinAgrees(t *testing.T, nested *Engine, joined map[string]*Engine, q string) string {
	t.Helper()
	want := joinOutcome(nested.Query(q))
	for _, name := range joinedEngines {
		st, err := joined[name].Compile(q)
		if err != nil {
			t.Fatalf("%s: compile: %v\nquery: %s", name, err, q)
		}
		if got := joinOutcome(st.Collect()); got != want {
			t.Errorf("%s collect:\n%.600s\nnested loop:\n%.600s\nquery: %s", name, got, want, q)
		}
		if name == "cluster" {
			if got := joinOutcome(streamAll(st)); got != want {
				t.Errorf("%s stream:\n%.600s\nnested loop:\n%.600s\nquery: %s", name, got, want, q)
			}
		}
	}
	return want
}

// TestGeneratedJoinsAgree holds a few hundred seeded equi-joins, each with
// up to three extra conjuncts, to the nested loop on every joined engine.
// A failure prints the query.
func TestGeneratedJoinsAgree(t *testing.T) {
	reddit, subs := writeRedditFile(t, 400), writeSubredditRows(t)
	nested, joined := joinEngines()
	probeFilters, vectorJoins, succeeded := 0, 0, 0
	for seed := int64(0); seed < 200; seed++ {
		q := generateJoin(seed, reddit, subs)
		plan := mustExplain(t, joined["vector"], q)
		if !strings.Contains(plan, "Join[hash]") {
			t.Fatalf("join not detected:\n%s\nquery: %s", plan, q)
		}
		if strings.Contains(plan, "probe where: ") {
			probeFilters++
		}
		if strings.HasPrefix(plan, "flwor [Vector") {
			vectorJoins++
		}
		if !strings.HasPrefix(checkJoinAgrees(t, nested, joined, q), "error: ") {
			succeeded++
		}
	}
	// The suite must exercise the probe filter and the vector join, and
	// compare items, not only errors.
	if probeFilters < 40 || vectorJoins < 60 || succeeded < 120 {
		t.Errorf("of 200 joins, %d have a probe filter, %d run as vector joins and %d returned items",
			probeFilters, vectorJoins, succeeded)
	}
}

// FuzzJoinsAgree lets the fuzzer pick the join seeds.
func FuzzJoinsAgree(f *testing.F) {
	reddit, subs := writeRedditFile(f, 200), writeSubredditRows(f)
	nested, joined := joinEngines()
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkJoinAgrees(t, nested, joined, generateJoin(seed, reddit, subs))
	})
}

// TestOrderByManyKeys: the string/number mix check and the comparator have
// no bound on the number of ordering keys, on either backend.
func TestOrderByManyKeys(t *testing.T) {
	parallel, local := chainEngines()
	ties := strings.Repeat("0, ", 40)
	q := `for $x in parallelize((3, 1, 2)) order by ` + ties + `$x descending return $x`
	if msg := checkModesAgree(t, parallel, local, q, false); msg != "" {
		t.Errorf("41 keys: %s", msg)
	}
	if got := fmt.Sprint(run(t, parallel, q)); got != "[3 2 1]" {
		t.Errorf("41 keys: %s", got)
	}
	q = `for $x in parallelize((3, "a", 2)) order by ` + ties + `$x return $x`
	want := "order by: key 41 mixes strings and numbers across the tuple stream"
	if msg := checkModesAgree(t, parallel, local, q, false); !strings.Contains(msg, want) {
		t.Errorf("mixed 41st key: error %q, want %q", msg, want)
	}
}
