package dfs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTempFile(t *testing.T, content string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "data.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func collectSplit(t *testing.T, s Split) []string {
	t.Helper()
	var lines []string
	if err := ReadLines(s, nil, func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestSingleSplitReadsAllLines(t *testing.T) {
	path := writeTempFile(t, "one\ntwo\nthree\n")
	splits, err := ListSplits(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 {
		t.Fatalf("%d splits", len(splits))
	}
	lines := collectSplit(t, splits[0])
	if strings.Join(lines, ",") != "one,two,three" {
		t.Errorf("lines = %v", lines)
	}
}

func TestNoTrailingNewline(t *testing.T) {
	path := writeTempFile(t, "a\nb")
	splits, _ := ListSplits(path, 0)
	lines := collectSplit(t, splits[0])
	if strings.Join(lines, ",") != "a,b" {
		t.Errorf("lines = %v", lines)
	}
}

func TestCRLFHandling(t *testing.T) {
	path := writeTempFile(t, "a\r\nb\r\n")
	splits, _ := ListSplits(path, 0)
	lines := collectSplit(t, splits[0])
	if strings.Join(lines, ",") != "a,b" {
		t.Errorf("lines = %v", lines)
	}
}

func TestSplitBoundariesExactlyOnce(t *testing.T) {
	// Many lines, tiny splits: every line must appear exactly once no
	// matter where the split boundaries fall.
	var sb strings.Builder
	const n = 500
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `{"id": %d, "pad": "%s"}`+"\n", i, strings.Repeat("x", i%37))
	}
	path := writeTempFile(t, sb.String())
	for _, splitSize := range []int64{64, 256, 1000, 1 << 20} {
		splits, err := ListSplits(path, splitSize)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		total := 0
		for _, s := range splits {
			for _, line := range collectSplit(t, s) {
				seen[line]++
				total++
			}
		}
		if total != n {
			t.Fatalf("splitSize %d: %d lines total, want %d", splitSize, total, n)
		}
		for line, count := range seen {
			if count != 1 {
				t.Fatalf("splitSize %d: line %q seen %d times", splitSize, line, count)
			}
		}
	}
}

func TestEmptyFile(t *testing.T) {
	path := writeTempFile(t, "")
	splits, err := ListSplits(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 {
		t.Fatalf("%d splits for empty file", len(splits))
	}
	if lines := collectSplit(t, splits[0]); len(lines) != 0 {
		t.Errorf("lines = %v", lines)
	}
}

func TestBlankLinesSkipped(t *testing.T) {
	path := writeTempFile(t, "a\n\n\nb\n")
	splits, _ := ListSplits(path, 0)
	lines := collectSplit(t, splits[0])
	if strings.Join(lines, ",") != "a,b" {
		t.Errorf("lines = %v", lines)
	}
}

func TestDirectoryOfPartFiles(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		pw, err := w.Part(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := pw.WriteLine([]byte(fmt.Sprintf("p%d-%d", p, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	splits, err := ListSplits(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("%d splits, want 3 (the _SUCCESS marker must be skipped)", len(splits))
	}
	total := 0
	for _, s := range splits {
		total += len(collectSplit(t, s))
	}
	if total != 12 {
		t.Errorf("read %d lines, want 12", total)
	}
}

func TestListSplitsMissingPath(t *testing.T) {
	if _, err := ListSplits("/definitely/not/here", 0); err == nil {
		t.Error("missing path should error")
	}
}

func TestBlockObserverSubBlockSplits(t *testing.T) {
	// Splits smaller than BlockSize must still report one block each, so
	// simulated storage latency applies to fine-grained parallel scans
	// (the Figure 14 speedup depends on overlapping this latency).
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString(strings.Repeat("z", 100))
		sb.WriteByte('\n')
	}
	path := writeTempFile(t, sb.String())
	splits, err := ListSplits(path, 4<<10) // 4 KiB splits, far below BlockSize
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 2 {
		t.Fatalf("%d splits, want several", len(splits))
	}
	for i, s := range splits {
		blocks := 0
		if err := ReadLines(s, func(n int) { blocks += n }, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if blocks < 1 {
			t.Errorf("split %d reported %d blocks, want at least 1", i, blocks)
		}
	}
}

func TestBlockObserverCalled(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		sb.WriteString(strings.Repeat("y", 100))
		sb.WriteByte('\n')
	}
	path := writeTempFile(t, sb.String())
	splits, _ := ListSplits(path, 1<<30)
	blocks := 0
	if err := ReadLines(splits[0], func(n int) { blocks += n }, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	wantAtLeast := (5000 * 101) / BlockSize
	if blocks < wantAtLeast-1 {
		t.Errorf("observer saw %d blocks, want about %d", blocks, wantAtLeast)
	}
}

// TestLineLongerThanReader reads lines that do not fit the pooled reader's
// buffer — alone in the file, between short lines, and as the partial first
// line a non-zero split skips — and checks content and block accounting.
func TestLineLongerThanReader(t *testing.T) {
	long := strings.Repeat("L", readerSize+readerSize/2)
	huge := strings.Repeat("H", 3*readerSize+7)
	content := "short\n" + long + "\r\n" + "mid\n" + huge + "\n" + "tail"
	path := writeTempFile(t, content)
	want := []string{"short", long, "mid", huge, "tail"}

	var blocks int
	var got []string
	if err := ReadLines(Split{Path: path, Length: int64(len(content))}, func(n int) { blocks += n }, func(line []byte) error {
		got = append(got, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: %d bytes starting %.8q, want %d bytes starting %.8q", i, len(got[i]), got[i], len(want[i]), want[i])
		}
	}
	if wantBlocks := BlocksFor(int64(len(content))); blocks != wantBlocks {
		t.Errorf("charged %d blocks, BlocksFor charges %d", blocks, wantBlocks)
	}

	// A split that starts inside the long line skips its remainder (longer
	// than the reader) and owns everything after it.
	got = got[:0]
	off := int64(len("short\n") + 10)
	if err := ReadLines(Split{Path: path, Offset: off, Length: int64(len(content)) - off}, nil, func(line []byte) error {
		got = append(got, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != strings.Join(want[2:], ",") {
		t.Errorf("split inside the long line yields %d lines, want mid, huge, tail", len(got))
	}
}

// TestLineStraddlingSplitBoundary cuts a file at every byte offset: the line
// the cut falls into belongs to the first split whole, the second split
// starts at the next line, CRLF or not.
func TestLineStraddlingSplitBoundary(t *testing.T) {
	content := "alpha\r\nbravo\ncharlie\r\n\r\ndelta"
	all := []string{"alpha", "bravo", "charlie", "delta"}
	path := writeTempFile(t, content)
	for cut := int64(1); cut < int64(len(content)); cut++ {
		first := collectSplit(t, Split{Path: path, Offset: 0, Length: cut})
		second := collectSplit(t, Split{Path: path, Offset: cut, Length: int64(len(content)) - cut})
		if got := strings.Join(append(first, second...), ","); got != strings.Join(all, ",") {
			t.Errorf("cut at %d: %v + %v", cut, first, second)
		}
	}
}

// TestLineIsValidOnlyUntilYieldReturns pins the lifetime contract from the
// caller's side: a retained line is overwritten by later reads, a copied one
// is not.
func TestLineIsValidOnlyUntilYieldReturns(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 4; i++ {
		sb.WriteString(strings.Repeat(fmt.Sprint(i), readerSize/2-1))
		sb.WriteByte('\n')
	}
	path := writeTempFile(t, sb.String())
	var retained, copied [][]byte
	if err := ReadLines(Split{Path: path, Length: int64(sb.Len())}, nil, func(line []byte) error {
		retained = append(retained, line)
		copied = append(copied, append([]byte(nil), line...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	aliased := false
	for i := range copied {
		if want := strings.Repeat(fmt.Sprint(i), readerSize/2-1); string(copied[i]) != want {
			t.Errorf("copied line %d corrupted", i)
		}
		if string(retained[i]) != string(copied[i]) {
			aliased = true
		}
	}
	if !aliased {
		t.Error("four half-buffer lines all survived retention: ReadLines is not yielding views of its reader")
	}
}
