package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"

	"rumble/internal/datagen"
)

// Every input is made here from the seed; the engine only ever sees the
// files. The same seed gives byte-identical files.

// redditFacts is what the generator of a Reddit file knows about it: the
// closed forms the result checks use beside the oracle engine.
type redditFacts struct {
	rows    int
	bytes   int64
	scores  []int64 // ascending
	created []int64 // ascending (the file is in this order)
}

// scoresAbove returns how many rows have score > v.
func (f redditFacts) scoresAbove(v int64) int {
	return len(f.scores) - sort.Search(len(f.scores), func(i int) bool { return f.scores[i] > v })
}

// writeReddit writes n Reddit comments as one JSON-Lines file sorted by
// created_utc, the order the real monthly dumps have and the one that lets
// zone maps prune a time range.
func writeReddit(path string, n int, seed int64) (redditFacts, error) {
	gen := datagen.NewRedditGenerator(seed)
	type rec struct {
		line    []byte
		created int64
	}
	recs := make([]rec, n)
	facts := redditFacts{rows: n, scores: make([]int64, n), created: make([]int64, n)}
	for i := range recs {
		line := gen.Next()
		created, err := intField(line, "created_utc")
		if err != nil {
			return facts, err
		}
		if facts.scores[i], err = intField(line, "score"); err != nil {
			return facts, err
		}
		recs[i] = rec{line, created}
	}
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].created < recs[b].created })
	lines := make([][]byte, n)
	for i, r := range recs {
		lines[i], facts.created[i] = r.line, r.created
	}
	sort.Slice(facts.scores, func(a, b int) bool { return facts.scores[a] < facts.scores[b] })
	var err error
	facts.bytes, err = writeLines(path, lines)
	return facts, err
}

// writeConfusion writes n Great-Language-Game objects as one file.
func writeConfusion(path string, n int, seed int64) error {
	gen := datagen.NewConfusionGenerator(seed)
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = gen.Next()
	}
	_, err := writeLines(path, lines)
	return err
}

// subredditRows is the pinned cardinality of subreddits.jsonl, the join's
// build side: one row per entry of datagen.Subreddits.
const subredditRows = 12

func writeSubreddits(path string) error {
	if len(datagen.Subreddits) != subredditRows {
		return fmt.Errorf("datagen.Subreddits has %d entries, the benchmark pins %d", len(datagen.Subreddits), subredditRows)
	}
	lines := make([][]byte, len(datagen.Subreddits))
	for i, name := range datagen.Subreddits {
		lines[i] = []byte(fmt.Sprintf(`{"name": %q, "rank": %d, "topic": "topic%d"}`, name, i+1, i%4))
	}
	_, err := writeLines(path, lines)
	return err
}

func writeLines(path string, lines [][]byte) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var n int64
	for _, l := range lines {
		w.Write(l)
		w.WriteByte('\n')
		n += int64(len(l)) + 1
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

// intField reads the integer value of a top-level `"key": <int>` pair of a
// generated line. The generators write exactly this spacing.
func intField(line []byte, key string) (int64, error) {
	pat := []byte(`"` + key + `": `)
	i := bytes.Index(line, pat)
	if i < 0 {
		return 0, fmt.Errorf("generated line has no %q", key)
	}
	rest := line[i+len(pat):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		end = len(rest)
	}
	return strconv.ParseInt(string(rest[:end]), 10, 64)
}
