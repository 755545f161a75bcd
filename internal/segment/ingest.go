package segment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"rumble/internal/dfs"
	"rumble/internal/item"
	"rumble/internal/jparse"
	"rumble/internal/sched"
)

// ingestChunkSize is the least number of source bytes one parse task covers:
// large enough that a task amortizes its hand-offs, small enough that a
// source of a few megabytes already fans out.
const ingestChunkSize = 256 << 10

// staleAfter is the age past which a staging or set-aside directory next to
// a segments directory is an orphan of a crashed ingest, not the work of a
// live one: a running ingest adds a segment file to its staging directory
// far more often than this.
const staleAfter = 10 * time.Minute

// IngestStats describes one completed ingest.
type IngestStats struct {
	Duration time.Duration
	Rows     int64
	Segments int
	Workers  int
	Bytes    int64 // source bytes read (and hashed)
}

// String renders the stats the way explain-analyze notes them on the scan
// line of the statement that paid the ingest.
func (st IngestStats) String() string {
	return fmt.Sprintf("ingest=%.2fms rows=%d segments=%d workers=%d",
		float64(st.Duration)/1e6, st.Rows, st.Segments, st.Workers)
}

// testHook, set only by tests, observes an ingest: stages "parse",
// "assemble", "encode" and "rebuild" as that step starts for chunk or
// segment n, and "rows" with the change in parsed rows the ingest holds.
var testHook func(event string, n int)

func hook(event string, n int) {
	if testHook != nil {
		testHook(event, n)
	}
}

// testWriter, set only by tests, wraps the file each segment image is
// written to.
var testWriter func(imageWriter) imageWriter

// named turns a panic contained by sched.Safely, sched.Ordered or sched.Go
// into a structured error naming the source; other errors pass through.
func named(source string, err error) error {
	if p, ok := err.(*sched.PanicError); ok {
		return errf(source, "%v", p)
	}
	return err
}

// Ingest builds (or rebuilds) the segment dataset of source on every core:
// see IngestDataset.
func Ingest(source string) error {
	_, err := IngestDataset(source)
	return err
}

// IngestDataset builds (or rebuilds) the segment dataset of source and
// returns it, validated by construction: the manifest's content hash is the
// hash of the very bytes that were parsed. It reads the JSON lines once, in
// raw scan order, and writes full segments of Rows rows (the final segment
// may be partial) plus the manifest into a staging directory that is then
// swapped in for the sibling segments directory. Any unparseable line
// aborts the ingest — such a source stays on the raw scan path, which
// reports the same parse error the tuple backend would.
func IngestDataset(source string) (*Dataset, error) {
	ds, _, err := ingest(source, 0, ingestChunkSize)
	return ds, err
}

// chunk is one parse task: whole lines of one source file.
type chunk struct {
	idx  int
	path string
	data []byte
}

// segTask is one segment's rows, assembled and resolved to their shapes,
// on their way to the segment file idx.
type segTask struct {
	idx int
	b   *builder
}

// readSource walks the data files of source once, in scan order, cutting
// each into chunks of at least chunkSize bytes that end on a line boundary,
// and returns the content hash SourceHash defines — the sha256 over every
// file's name and bytes — of exactly the bytes it handed out, plus their
// count. take receives each chunk after it was hashed, with the path of its
// file, and returns the buffer to read the next chunk into (the same one
// when it is done with the bytes).
func readSource(source, op string, chunkSize int, buf []byte, take func(path string, chunk []byte) ([]byte, error)) (string, int64, error) {
	splits, err := dfs.ListSplits(source, 1<<62)
	if err != nil {
		return "", 0, errf(source, "%s: %v", op, err)
	}
	h := sha256.New()
	var total int64
	for _, sp := range splits {
		io.WriteString(h, filepath.Base(sp.Path))
		h.Write([]byte{0})
		r, err := dfs.OpenChunks(sp.Path, chunkSize)
		if err != nil {
			return "", 0, errf(sp.Path, "%s: %v", op, err)
		}
		for {
			data, err := r.Next(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return "", 0, errf(sp.Path, "%s: %v", op, err)
			}
			h.Write(data)
			total += int64(len(data))
			if buf, err = take(sp.Path, data); err != nil {
				r.Close()
				return "", 0, err
			}
		}
		r.Close()
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}

// chunkBuffers recycles chunk byte buffers, across ingests too: a chunk's
// bytes are dead once it is parsed.
var chunkBuffers = sync.Pool{New: func() any { return []byte(nil) }}

// parseSource is the producer of an ingest's outer run, itself an ordered
// run over the source's chunks: readSource reads and hashes each on the
// run's producer, a worker parses it, and the merge assembles the parsed
// rows in scan order — so the first error it meets is the first in scan
// order, whichever task failed first — into segments, each handed to emit
// as soon as it is full, then the partial tail. It returns readSource's
// hash and byte count. The window of workers chunks, with the one being
// read, bounds the chunk buffers in flight to workers+1.
func parseSource(source string, workers, chunkSize int, emit func(segTask) error) (hash string, size int64, err error) {
	// One decoder per worker, made on its first chunk: a worker's rows share
	// item.Shapes across its chunks, which the builder keys its per-shape
	// work by.
	decs := make([]*jparse.Decoder, workers)
	var rows []item.Item // allocated once the segment has a row
	segs := 0
	flush := func() error {
		hook("assemble", segs)
		s := segTask{idx: segs, b: newBuilder(rows)}
		segs, rows = segs+1, nil
		return emit(s)
	}
	err = sched.Ordered(context.Background(), workers, workers, func(emitChunk func(chunk) error) error {
		var err error
		next := 0
		hash, size, err = readSource(source, "ingest", chunkSize, chunkBuffers.Get().([]byte), func(path string, data []byte) ([]byte, error) {
			if err := emitChunk(chunk{idx: next, path: path, data: data}); err != nil {
				return nil, err
			}
			next++
			return chunkBuffers.Get().([]byte), nil
		})
		return err
	}, func(w int, c chunk) ([]item.Item, error) {
		hook("parse", c.idx)
		if decs[w] == nil {
			decs[w] = jparse.NewDecoder()
		}
		var parsed []item.Item
		err := dfs.Lines(c.data, func(line []byte) error {
			it, err := decs[w].Decode(line)
			if err != nil {
				return errf(c.path, "ingest: %v", err)
			}
			parsed = append(parsed, it)
			return nil
		})
		hook("rows", len(parsed))
		chunkBuffers.Put(c.data[:0])
		return parsed, err
	}, func(_ int, parsed []item.Item) (bool, error) {
		for len(parsed) > 0 {
			if rows == nil {
				rows = make([]item.Item, 0, Rows)
			}
			n := min(Rows-len(rows), len(parsed))
			rows, parsed = append(rows, parsed[:n]...), parsed[n:]
			if len(rows) == Rows {
				if err := flush(); err != nil {
					return false, err
				}
			}
		}
		return false, nil
	}, nil)
	if err == nil && len(rows) > 0 {
		err = flush()
	}
	return hash, size, err
}

// writeSegment lays out the image of s and writes it to its segment file in
// the staging directory tmp.
func writeSegment(source, tmp string, s segTask) (Meta, error) {
	defer hook("rows", -len(s.b.rows))
	hook("encode", s.idx)
	lg := s.b.lanes()
	name := fmt.Sprintf("seg-%05d.rseg", s.idx)
	f, err := os.OpenFile(filepath.Join(tmp, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return Meta{}, errf(source, "ingest: %v", err)
	}
	defer f.Close() // after a panic; the checked Close is below
	var w imageWriter = f
	if testWriter != nil {
		w = testWriter(f)
	}
	size, crc, zones, err := s.b.finish(lg, w)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Meta{}, errf(source, "ingest: %v", err)
	}
	return Meta{File: name, Rows: len(s.b.rows), Bytes: size, CRC: crc, Cols: zones}, nil
}

// ingest is the one ingest loop: Ingest, a store's first touch and its
// background rebuilds all run it, differing only in the worker count
// (workers <= 0 uses every core).
func ingest(source string, workers, chunkSize int) (ds *Dataset, st IngestStats, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err = named(source, sched.Safely(func() error {
		var err error
		ds, st, err = runIngest(source, workers, chunkSize)
		return err
	}))
	return ds, st, err
}

func runIngest(source string, workers, chunkSize int) (*Dataset, IngestStats, error) {
	start := time.Now()
	dir := Dir(source)
	sweepStale(dir)
	mpath := filepath.Join(dir, ManifestName)
	before, _ := os.ReadFile(mpath) // what this ingest replaces, if anything
	tmp, err := os.MkdirTemp(filepath.Dir(dir), filepath.Base(dir)+".tmp-*")
	if err != nil {
		return nil, IngestStats{}, errf(source, "ingest: %v", err)
	}
	installed := false
	defer func() {
		if !installed { // an error, or a panic on its way to ingest's recover
			os.RemoveAll(tmp)
		}
	}()
	// MkdirTemp creates 0700 staging directories; the swap below makes this
	// the final segments directory, which must stay as readable as ordinary
	// created files (umask applies), not private to the ingesting user.
	if err := os.Chmod(tmp, 0o755); err != nil {
		return nil, IngestStats{}, errf(source, "ingest: %v", err)
	}
	// Fingerprint the source before a byte of it is read, settled against
	// the clock of a file created in the staging directory: the SOURCE.json
	// it becomes lets later opens trust the manifest without hashing.
	record := filepath.Join(tmp, SourceName)
	probe, err := os.Create(record)
	if err != nil {
		return nil, IngestStats{}, errf(source, "ingest: %v", err)
	}
	fp := settle(statSource(source), probe)
	probe.Close()

	// Two nested ordered runs: the outer one's producer is parseSource's
	// run, its workers encode and write segments, and its merge lists them
	// in the manifest. Its window of workers segments, with the one being
	// assembled, bounds the parsed rows in flight.
	m := Manifest{Version: Version}
	err = sched.Ordered(context.Background(), workers, workers, func(emit func(segTask) error) error {
		var err error
		m.SourceHash, m.SourceBytes, err = parseSource(source, workers, chunkSize, emit)
		return err
	}, func(_ int, s segTask) (Meta, error) {
		return writeSegment(source, tmp, s)
	}, func(_ int, meta Meta) (bool, error) {
		m.Segments = append(m.Segments, meta)
		m.Rows += int64(meta.Rows)
		return false, nil
	}, nil)
	if err != nil {
		return nil, IngestStats{}, err
	}
	m.Checksum = m.checksum()
	mdata, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, IngestStats{}, errf(source, "ingest: %v", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, ManifestName), mdata, 0o644); err != nil {
		return nil, IngestStats{}, errf(source, "ingest: %v", err)
	}
	if fp != nil {
		err = writeRecord(record, m.Checksum, fp)
	} else {
		err = os.Remove(record) // racy: every open hashes until one records it
	}
	if err != nil {
		return nil, IngestStats{}, errf(source, "ingest: %v", err)
	}
	if m, err = swapIn(source, tmp, m, before); err != nil {
		return nil, IngestStats{}, err
	}
	installed = true
	st := IngestStats{Duration: time.Since(start), Rows: m.Rows, Segments: len(m.Segments), Workers: workers, Bytes: m.SourceBytes}
	return newDataset(source, dir, m, fp), st, nil
}

// swapIn makes the staged directory tmp, holding manifest m, the segments
// directory of source: the directory it replaces moves aside, tmp is renamed
// into place, then the old one is deleted — readers in other processes find
// the old or the new directory except for the instant between the two
// renames, and a crash at any point leaves complete directories that the
// next ingest sweeps. before is the manifest this ingest saw when it
// started. When another ingest of the same content got there first — the
// manifest changed under this one, or the rename finds a directory in the
// way — and what it installed validates against this ingest's own hash, the
// winner's directory is adopted (its bytes are the same: ingest is
// deterministic) and tmp discarded. A winner whose manifest fails its
// checksum is not adopted: OpenDataset would refuse it.
func swapIn(source, tmp string, m Manifest, before []byte) (Manifest, error) {
	dir := Dir(source)
	mpath := filepath.Join(dir, ManifestName)
	adopt := func() (Manifest, bool) {
		now, err := os.ReadFile(mpath)
		if err != nil || bytes.Equal(now, before) {
			return Manifest{}, false
		}
		var winner Manifest
		if json.Unmarshal(now, &winner) != nil || winner.Version != Version || !winner.sealed() ||
			winner.SourceHash != m.SourceHash || winner.SourceBytes != m.SourceBytes {
			return Manifest{}, false
		}
		os.RemoveAll(tmp)
		return winner, true
	}
	if winner, ok := adopt(); ok {
		return winner, nil
	}
	aside := ""
	if _, err := os.Stat(dir); err == nil {
		aside = fmt.Sprintf("%s.old-%d-%d", dir, os.Getpid(), time.Now().UnixNano())
		if err := os.Rename(dir, aside); err != nil && !os.IsNotExist(err) {
			return Manifest{}, errf(source, "ingest: %v", err)
		}
	}
	if err := os.Rename(tmp, dir); err != nil {
		winner, ok := adopt()
		if ok && aside != "" {
			os.RemoveAll(aside)
		}
		if ok {
			return winner, nil
		}
		if aside != "" {
			os.Rename(aside, dir) // put back what was there, if its place is still free
		}
		return Manifest{}, errf(source, "ingest: %v", err)
	}
	if aside != "" {
		os.RemoveAll(aside)
	}
	return m, nil
}

// sweepStale deletes the orphans earlier, crashed ingests left next to dir:
// staging (".tmp-") and set-aside (".old-") directories nothing has touched
// for staleAfter. Failures are ignored — an orphan costs only disk.
func sweepStale(dir string) {
	entries, err := os.ReadDir(filepath.Dir(dir))
	if err != nil {
		return
	}
	base := filepath.Base(dir)
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !(strings.HasPrefix(name, base+".tmp-") || strings.HasPrefix(name, base+".old-")) {
			continue
		}
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > staleAfter {
			os.RemoveAll(filepath.Join(filepath.Dir(dir), name))
		}
	}
}
