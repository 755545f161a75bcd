package dfs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestChunksCoverFileAndMatchReadLines: at every minimum size, the chunks of
// a file are its bytes cut only after line ends, each at least the minimum
// long but the last, and their records are exactly ReadLines' records — CRLF,
// blank lines, a line longer than a chunk, no final terminator — read with
// every byte of the file counted once.
func TestChunksCoverFileAndMatchReadLines(t *testing.T) {
	long := strings.Repeat("L", 3*lineSlack+11)
	contents := map[string]string{
		"mixed":       "alpha\r\nbravo\n\n\r\ncharlie\r\n" + long + "\ndelta\n\nlast without newline",
		"terminated":  "one\ntwo\nthree\n",
		"only-blanks": "\n\r\n\n",
		"lone-cr":     "x\n\r",
		"one-line":    "{\"a\": 1}",
		"empty":       "",
	}
	for name, content := range contents {
		path := writeTempFile(t, content)
		want := collectSplit(t, Split{Path: path, Length: int64(len(content))})
		for _, minSize := range []int{0, 1, 2, 7, 64, lineSlack, len(content), 10 * len(content)} {
			before := BytesRead()
			r, err := OpenChunks(path, minSize)
			if err != nil {
				t.Fatal(err)
			}
			var all []byte
			var got []string
			var buf []byte
			for {
				chunk, err := r.Next(buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				rest := len(content) - len(all) - len(chunk)
				if rest > 0 && (len(chunk) < minSize || chunk[len(chunk)-1] != '\n') {
					t.Fatalf("%s min=%d: inner chunk of %d bytes ending %q", name, minSize, len(chunk), chunk[len(chunk)-1])
				}
				if minSize > 0 && rest > 0 && bytes.IndexByte(chunk[minSize-1:len(chunk)-1], '\n') >= 0 {
					t.Fatalf("%s min=%d: chunk of %d bytes runs past the first line end it could stop at", name, minSize, len(chunk))
				}
				all = append(all, chunk...)
				if err := Lines(chunk, func(line []byte) error {
					got = append(got, string(line))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				buf = chunk // reuse, as a caller done with the bytes does
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if string(all) != content {
				t.Fatalf("%s min=%d: chunks concatenate to %d bytes, file has %d", name, minSize, len(all), len(content))
			}
			if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
				t.Fatalf("%s min=%d: %d records, ReadLines yields %d", name, minSize, len(got), len(want))
			}
			if read := BytesRead() - before; read != int64(len(content)) {
				t.Fatalf("%s min=%d: read %d bytes of a %d-byte file", name, minSize, read, len(content))
			}
		}
	}
}

func TestReadLinesCountsBytesRead(t *testing.T) {
	content := strings.Repeat("0123456789\n", 5000)
	path := writeTempFile(t, content)
	before := BytesRead()
	collectSplit(t, Split{Path: path, Length: int64(len(content))})
	if read := BytesRead() - before; read != int64(len(content)) {
		t.Fatalf("ReadLines read %d bytes of a %d-byte file", read, len(content))
	}
}

func TestOpenChunksMissingFile(t *testing.T) {
	if _, err := OpenChunks("/nonexistent/definitely", 10); err == nil {
		t.Fatal("OpenChunks of a missing file succeeded")
	}
}
