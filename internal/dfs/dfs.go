// Package dfs is a local stand-in for HDFS/S3: line-oriented files read in
// parallel through byte-range splits, and directory-of-part-files output
// layouts (part-00000, part-00001, ...). Splits are aligned to newline
// boundaries exactly the way Hadoop input splits are: a reader that does
// not start at offset zero skips the first (partial) line, and every reader
// finishes the line that straddles its end boundary.
package dfs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DefaultSplitSize is the split granularity for single large files,
// standing in for an HDFS block (scaled down from 128 MB).
const DefaultSplitSize = 8 << 20

// BlockSize is the granularity at which ReadLines reports simulated block
// reads to its observer (for I/O latency emulation).
const BlockSize = 64 << 10

// Split is one parallel unit of input: a byte range of a file.
type Split struct {
	Path   string
	Offset int64
	Length int64
}

// ListSplits enumerates the splits of path. A directory yields one split
// per part file; a plain file larger than splitSize is divided into ranges
// (splitSize <= 0 uses DefaultSplitSize).
func ListSplits(path string, splitSize int64) ([]Split, error) {
	if splitSize <= 0 {
		splitSize = DefaultSplitSize
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, fmt.Errorf("dfs: %w", err)
		}
		var names []string
		for _, e := range entries {
			if e.IsDir() || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") {
				continue
			}
			names = append(names, e.Name())
		}
		sort.Strings(names)
		var splits []Split
		for _, n := range names {
			fp := filepath.Join(path, n)
			fi, err := os.Stat(fp)
			if err != nil {
				return nil, fmt.Errorf("dfs: %w", err)
			}
			splits = append(splits, fileSplits(fp, fi.Size(), splitSize)...)
		}
		return splits, nil
	}
	return fileSplits(path, info.Size(), splitSize), nil
}

func fileSplits(path string, size, splitSize int64) []Split {
	if size == 0 {
		return []Split{{Path: path, Offset: 0, Length: 0}}
	}
	var splits []Split
	for off := int64(0); off < size; off += splitSize {
		length := splitSize
		if off+length > size {
			length = size - off
		}
		splits = append(splits, Split{Path: path, Offset: off, Length: length})
	}
	return splits
}

// readerSize is the buffer of the pooled split readers; a line up to this
// long is yielded as a view of the buffer.
const readerSize = 256 << 10

var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readerSize) }}

// ReadLines streams the lines belonging to split through yield. Boundary
// handling follows Hadoop: skip a partial first line unless at offset 0,
// and read past Length to finish the last line. blockObserver, when
// non-nil, is called once per BlockSize of data consumed (used to simulate
// storage latency); the trailing partial block is reported as one block
// when the split finishes, so every non-empty read incurs at least one
// simulated round trip — splits smaller than a block would otherwise never
// report I/O at all, making latency simulation (and the cluster speedups
// it demonstrates) silently disappear for fine-grained splits.
//
// The line is valid only until yield returns: it is a view of a pooled
// reader's buffer (of an owned buffer, reused the same way, for a line
// longer than the reader) that the next line overwrites. A caller that
// keeps a line past its yield must copy it.
func ReadLines(split Split, blockObserver func(blocks int), yield func(line []byte) error) (err error) {
	f, err := os.Open(split.Path)
	if err != nil {
		return fmt.Errorf("dfs: %w", err)
	}
	defer f.Close()
	if split.Offset > 0 {
		if _, err := f.Seek(split.Offset, io.SeekStart); err != nil {
			return fmt.Errorf("dfs: %w", err)
		}
	}
	r := readers.Get().(*bufio.Reader)
	r.Reset(countedFile{f})
	defer func() {
		r.Reset(nil) // an idle reader must not pin the closed file
		readers.Put(r)
	}()
	var consumed int64
	var acct Accountant
	defer func() {
		// Round the residual partial block up to one simulated block read
		// on every exit path (EOF, boundary, yield abort): the bytes were
		// fetched, so the round trip happened even if consumption stopped.
		if blockObserver != nil {
			if b := acct.Finish(); b > 0 {
				blockObserver(b)
			}
		}
	}()
	account := func(n int) {
		consumed += int64(n)
		if b := acct.Add(int64(n)); blockObserver != nil && b > 0 {
			blockObserver(b)
		}
	}
	var long []byte // owned buffer of a line longer than the reader
	// next reads one line, terminator included, growing long when the line
	// does not fit the reader.
	next := func() ([]byte, error) {
		line, err := r.ReadSlice('\n')
		if err != bufio.ErrBufferFull {
			return line, err
		}
		long = append(long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		return long, err
	}
	if split.Offset > 0 {
		// Skip the partial line owned by the previous split.
		skipped, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dfs: %w", err)
		}
		account(len(skipped))
	}
	for consumed <= split.Length {
		line, err := next()
		if len(line) > 0 {
			if record := trimLine(line); len(record) > 0 {
				if yerr := yield(record); yerr != nil {
					return yerr
				}
			}
			account(len(line))
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dfs: %w", err)
		}
	}
	return nil
}

// Writer writes a directory-of-part-files dataset, one part per partition,
// mirroring saveAsTextFile. Create the writer, obtain one PartWriter per
// partition (safe concurrently), then Commit.
type Writer struct {
	dir string
}

// NewWriter prepares (and creates) the output directory.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	return &Writer{dir: dir}, nil
}

// PartWriter is a buffered writer for one part file.
type PartWriter struct {
	f *os.File
	w *bufio.Writer
}

// Part opens part file p ("part-00000" style).
func (w *Writer) Part(p int) (*PartWriter, error) {
	name := filepath.Join(w.dir, fmt.Sprintf("part-%05d", p))
	f, err := os.Create(name)
	if err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	return &PartWriter{f: f, w: bufio.NewWriterSize(f, 256<<10)}, nil
}

// WriteLine writes one record plus newline.
func (pw *PartWriter) WriteLine(line []byte) error {
	if _, err := pw.w.Write(line); err != nil {
		return err
	}
	return pw.w.WriteByte('\n')
}

// Close flushes and closes the part file.
func (pw *PartWriter) Close() error {
	if err := pw.w.Flush(); err != nil {
		pw.f.Close()
		return err
	}
	return pw.f.Close()
}

// Commit finalizes the dataset by writing a _SUCCESS marker, as Hadoop
// output committers do.
func (w *Writer) Commit() error {
	return os.WriteFile(filepath.Join(w.dir, "_SUCCESS"), nil, 0o644)
}
