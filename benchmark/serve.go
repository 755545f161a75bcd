package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"rumble"
	"rumble/internal/jparse"
	"rumble/internal/server"
)

// Request kinds of the serve_mixed schedule and their shares.
const (
	kindHot    = iota // 70%: a repeated aggregate text, JSON envelope
	kindNDJSON        // 20%: a streamed projection of about a third of the rows
	kindUnique        // 10%: a text no request used before, so the plan cache misses
)

// cycle is the exact mix of ten consecutive requests of one client. Each
// client walks its own seeded permutation of it, over and over, so every
// stretch of a run has the same shares whatever the seed.
var cycle = [10]int{kindHot, kindHot, kindHot, kindHot, kindHot, kindHot, kindHot, kindNDJSON, kindNDJSON, kindUnique}

// ndjsonThreshold makes the streamed projection return the rows with a
// score above it: about 35% of the file.
const ndjsonThreshold = 1200

// prepared is a request whose body and expected result are fixed.
type prepared struct {
	body    []byte
	ordered bool
	want    digest
}

// envelope is the part of the server's JSON response the client reads.
type envelope struct {
	Items     []json.RawMessage `json:"items"`
	Cached    bool              `json:"cached"`
	QueueMS   float64           `json:"queue_ms"`
	CompileMS float64           `json:"compile_ms"`
	ExecuteMS float64           `json:"execute_ms"`
	TotalMS   float64           `json:"total_ms"`
}

// serveClient is one closed-loop client: one keep-alive connection, one
// schedule, its own sequence of never-repeated literals.
type serveClient struct {
	http     *http.Client
	schedule []int
	pos      int
	unique   int64
	buf      []byte
}

type serveBench struct {
	ts      *httptest.Server
	eng     *rumble.Engine
	reddit  string
	facts   redditFacts
	hot     []prepared
	ndjson  prepared
	clients []*serveClient
}

func requestBody(query, format string) []byte {
	body, err := json.Marshal(map[string]string{"query": query, "format": format})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return body
}

func setupServeMixed(rp runPlan, dir string) (*bench, error) {
	reddit, facts, queries, err := segmentData(dir, rp.sizes.hot, rp.seed)
	if err != nil {
		return nil, err
	}
	// The hot texts are the round's grouped aggregate and two variants of
	// it that cost the same, so the hot 70% is one latency cluster and p50
	// sits inside it whatever the seeded mix is.
	served := []query{queries[0]}
	for _, agg := range []string{"max", "avg"} {
		served = append(served, query{name: "hot_" + agg, text: fmt.Sprintf(`
			for $o in json-file(%q)
			group by $s := $o.subreddit
			return {"subreddit": $s, "n": count($o), "score": %s($o.score)}`, reddit, agg)})
	}
	served = append(served, query{name: "ndjson_proj", text: fmt.Sprintf(`
		for $o in json-file(%q)
		where $o.score gt %d
		return {"id": $o.id, "score": $o.score}`, reddit, ndjsonThreshold)})
	if err := oracle(served[1:], ""); err != nil {
		return nil, err
	}
	nd := served[3]
	if got, want := nd.want.count, facts.scoresAbove(ndjsonThreshold); got != want {
		return nil, fmt.Errorf("ndjson oracle has %d items, the generated file has %d", got, want)
	}
	cfg := engineConfig(rp.workers, true)
	eng := rumble.New(cfg)
	if err := requireVector(eng, served); err != nil {
		return nil, err
	}
	sb := &serveBench{ts: httptest.NewServer(server.New(eng, server.Options{}).Handler()),
		eng: eng, reddit: reddit, facts: facts}
	for _, q := range served[:3] {
		sb.hot = append(sb.hot, prepared{body: requestBody(q.text, "json"), ordered: q.ordered, want: q.want})
	}
	sb.ndjson = prepared{body: requestBody(nd.text, "ndjson"), want: nd.want}
	for c := 0; c < rp.workers; c++ {
		rng := rand.New(rand.NewSource(rp.seed*1000 + int64(c)))
		cl := &serveClient{
			http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			unique: int64(c),
		}
		for _, i := range rng.Perm(len(cycle)) {
			cl.schedule = append(cl.schedule, cycle[i])
		}
		sb.clients = append(sb.clients, cl)
	}
	b := &bench{
		clients: rp.workers, op: sb.op, passHook: sb.passHook,
		redditPath: reddit, queries: served, engineConfig: cfg,
		info: map[string]any{"reddit_objects": facts.rows, "reddit_bytes": facts.bytes,
			"clients": rp.workers, "ndjson_items": nd.want.count,
			"engine": "one long-lived behind server.New(engine, Options{}), loopback HTTP"},
		close: func() {
			for _, cl := range sb.clients {
				cl.http.CloseIdleConnections()
			}
			sb.ts.Close()
		},
		claims: func(a *acc, _ int) error {
			hit := ratio(float64(a.sum.planHits), float64(a.sum.planHits+a.sum.planMisses))
			if hit < 0.85 || hit > 0.95 || a.sum.rejected != 0 {
				return fmt.Errorf("serve_mixed: plan_cache_hit_ratio=%.3f (want 0.85-0.95), rejected=%d (want 0)", hit, a.sum.rejected)
			}
			return nil
		},
	}
	if err := warm(b, 10*rp.sizes.warmRounds); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// serverCounters reads the server's own counters from GET /metrics.
type serverCounters struct {
	Rejected    int64 `json:"rejected"`
	CacheHits   int64 `json:"plan_cache_hits"`
	CacheMisses int64 `json:"plan_cache_misses"`
}

func (sb *serveBench) serverCounters() serverCounters {
	var doc struct {
		Server serverCounters `json:"server"`
	}
	resp, err := sb.clients[0].http.Get(sb.ts.URL + "/metrics")
	if err != nil {
		return doc.Server // zero counters fail the plan-cache claim
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return serverCounters{}
	}
	return doc.Server
}

// passHook attributes the pass's server and engine counter deltas.
func (sb *serveBench) passHook(a *acc) func() {
	srv0, eng0 := sb.serverCounters(), engineCounters(sb.eng)
	return func() {
		srv1 := sb.serverCounters()
		a.sum.addDelta(eng0, engineCounters(sb.eng))
		a.sum.rejected += srv1.Rejected - srv0.Rejected
		a.sum.planHits += srv1.CacheHits - srv0.CacheHits
		a.sum.planMisses += srv1.CacheMisses - srv0.CacheMisses
	}
}

func (sb *serveBench) op(t *tracer, client, opID int, a *acc) (time.Duration, bool) {
	cl := sb.clients[client]
	kind := cl.schedule[cl.pos%len(cl.schedule)]
	cl.pos++
	req := sb.ndjson
	switch kind {
	case kindHot:
		req = sb.hot[cl.pos%len(sb.hot)]
	case kindUnique:
		// score gt L with an L no request used before; the expected count
		// comes from the generated scores, not from an engine.
		cl.unique += int64(len(sb.clients))
		query := fmt.Sprintf(`count(for $o in json-file(%q) where $o.score gt %d return $o)`, sb.reddit, cl.unique)
		req = prepared{body: requestBody(query, "json")}
		req.want.add([]byte(strconv.Itoa(sb.facts.scoresAbove(cl.unique))), false)
	}

	start := time.Now()
	resp, err := cl.http.Post(sb.ts.URL+"/query", "application/json", bytes.NewReader(req.body))
	if err != nil {
		return time.Since(start), false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	dur := end.Sub(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		return dur, false // refused (429), failed (5xx) or cut short
	}

	var got digest
	root := t.add("http_request", -1, opID, start, end)
	if kind == kindNDJSON {
		for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
			got.add(line, false)
		}
		a.mu.Lock()
		a.sum.ndjsonBytes += int64(len(body))
		a.ndjsonMS += float64(dur) / 1e6
		a.sum.resultBytes += got.bytes
		a.mu.Unlock()
		return dur, got == req.want
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return dur, false
	}
	// encoding/json compacts the raw items, so re-serialize each through
	// the engine's own parser and serializer before checksumming.
	for _, raw := range env.Items {
		it, err := jparse.Parse(raw)
		if err != nil {
			return dur, false
		}
		cl.buf = it.AppendJSON(cl.buf[:0])
		got.add(cl.buf, req.ordered)
	}
	// The envelope reports durations; lay the phases end to end from the
	// request's start so the span's self time is what HTTP, JSON and the
	// response write add around them.
	at := start
	for _, ph := range []struct {
		name string
		ms   float64
	}{{"server.queue", env.QueueMS}, {"frontend.compile", env.CompileMS}, {"runtime.execute", env.ExecuteMS}} {
		next := at.Add(time.Duration(ph.ms * 1e6))
		t.add(ph.name, root, opID, at, next)
		at = next
	}
	a.mu.Lock()
	a.queueMS = append(a.queueMS, env.QueueMS)
	a.srvExecuteMS = append(a.srvExecuteMS, env.ExecuteMS)
	a.httpOverheadMS = append(a.httpOverheadMS, float64(dur)/1e6-env.TotalMS)
	if !env.Cached {
		a.compileMissMS = append(a.compileMissMS, env.CompileMS)
	}
	a.executeMS += env.ExecuteMS
	a.opMS += float64(dur) / 1e6
	a.sum.resultBytes += got.bytes
	a.mu.Unlock()
	return dur, got == req.want
}
