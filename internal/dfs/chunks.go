package dfs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// bytesRead counts every byte this package read from a data file.
var bytesRead atomic.Int64

// BytesRead returns the bytes read from data files so far, by ReadLines and
// by ChunkReaders, process-wide. It only grows; callers take differences
// (a test asserting that a source was read exactly once, for one).
func BytesRead() int64 { return bytesRead.Load() }

// countedFile is a data file whose reads feed BytesRead: one atomic add per
// read call, which the readers of this package issue a buffer at a time.
type countedFile struct{ f *os.File }

func (c countedFile) Read(p []byte) (int, error) {
	n, err := c.f.Read(p)
	bytesRead.Add(int64(n))
	return n, err
}

// trimLine is the line rule every reader of this package shares: a line
// gives up its '\n' terminator, then one '\r' before it; what is left is
// the record, and an empty record is not yielded.
func trimLine(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// Lines yields the records of chunk — whole lines, the last one with or
// without its terminator, as a ChunkReader cuts them — under exactly
// ReadLines' line rules: "\n" and "\r\n" terminate, blank lines are
// skipped. Each record is a view of chunk.
func Lines(chunk []byte, yield func(line []byte) error) error {
	for len(chunk) > 0 {
		end := bytes.IndexByte(chunk, '\n') + 1
		if end == 0 {
			end = len(chunk)
		}
		if record := trimLine(chunk[:end]); len(record) > 0 {
			if err := yield(record); err != nil {
				return err
			}
		}
		chunk = chunk[end:]
	}
	return nil
}

// lineSlack is how much a ChunkReader reads at a time once a chunk has its
// minimum size and only lacks the end of its last line: what it reads past
// that line end it must copy into the next chunk, so it reads little.
const lineSlack = 4 << 10

// ChunkReader reads one file front to back, once, as chunks of whole lines:
// every chunk ends just after a '\n', except that the last one takes the
// file's final line terminated or not. Concatenated, the chunks are the
// file's bytes; run through Lines, they are the records ReadLines yields for
// the whole file.
type ChunkReader struct {
	f       countedFile
	minSize int
	tail    []byte // read already, past the end of the last chunk returned
	eof     bool
}

// OpenChunks opens path for chunked reading. A chunk holds at least minSize
// bytes (fewer only at the end of the file) and ends at the first line end
// at or past that size, so a line longer than minSize is a chunk of its own
// length.
func OpenChunks(path string, minSize int) (*ChunkReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	return &ChunkReader{f: countedFile{f}, minSize: max(minSize, 1)}, nil
}

// Next reads the next chunk into buf[:0] — growing it when the chunk does
// not fit — and returns it; the caller owns the bytes and may hand them to
// another goroutine, passing a different buf to the next call. It returns
// io.EOF once the file is exhausted.
func (r *ChunkReader) Next(buf []byte) ([]byte, error) {
	buf = append(buf[:0], r.tail...)
	r.tail = r.tail[:0]
	end, searched := 0, r.minSize-1
	for end == 0 {
		if len(buf) > searched {
			if i := bytes.IndexByte(buf[searched:], '\n'); i >= 0 {
				end = searched + i + 1
				break
			}
			searched = len(buf)
		}
		if r.eof {
			end = len(buf)
			break
		}
		// One read brings the chunk to its minimum size; the line end is
		// usually within the slack read with it, else a slack further on.
		want := max(r.minSize-len(buf), 0) + lineSlack
		if cap(buf)-len(buf) < want {
			grown := make([]byte, len(buf), max(len(buf)+want, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.f.Read(buf[len(buf) : len(buf)+want])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			r.eof = true
		} else if err != nil {
			return nil, fmt.Errorf("dfs: %w", err)
		}
	}
	if end == 0 {
		return nil, io.EOF
	}
	r.tail = append(r.tail, buf[end:]...)
	return buf[:end], nil
}

// Close closes the file.
func (r *ChunkReader) Close() error { return r.f.f.Close() }
