package segment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// testHook, set only by tests, observes the pipeline: stages "parse",
// "assemble", "encode" and "rebuild" as that step starts for chunk or
// segment n, and "rows" with the change in parsed rows the pipeline holds.
var testHook func(event string, n int)

func hook(event string, n int) {
	if testHook != nil {
		testHook(event, n)
	}
}

// testWriter, set only by tests, wraps the file each segment image is
// written to.
var testWriter func(imageWriter) imageWriter

// named turns a panic contained by sched.Safely or sched.Go into a
// structured error naming the source; other errors pass through.
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

// chunk is one parse task: whole lines of one source file, and what came of
// parsing them. rows and err are the parsing worker's until done is closed.
type chunk struct {
	idx  int
	path string
	data []byte
	rows []item.Item
	err  error
	done chan struct{}
}

// segTask is one segment on its way to disk. The workers that build its
// lane groups share it; whichever finishes last lays out the image, writes
// the file and frees the pipeline slot.
type segTask struct {
	idx     int
	b       *builder
	groups  []*laneGroup
	pending atomic.Int32

	mu   sync.Mutex // guards err
	err  error
	meta Meta // written by the finishing worker, read after the workers exit
}

func (s *segTask) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *segTask) failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != nil
}

// pipeline is one ingest in flight. A single reader walks the source once,
// hashing every chunk it cuts and queueing it for the workers; the workers
// parse chunks and build segments; the caller's goroutine assembles parsed
// rows, in scan order, into segments. Back-pressure bounds what is in
// flight to workers+1 chunks and workers segments beside the one being
// assembled, whatever the source's size.
type pipeline struct {
	source    string
	tmp       string
	workers   int
	chunkSize int

	tasks chan func()   // parse and lane-group tasks, run by the workers
	order chan *chunk   // every chunk read, in scan order
	stop  chan struct{} // closed on the first failure: pending work is skipped
	busy  atomic.Int32  // tasks queued or running

	chunkSlots chan struct{} // held from a chunk's read until its rows are assembled
	segSlots   chan struct{} // held from a segment's dispatch until it is written

	// decoders holds one JSON decoder per worker, taken by a parse task for
	// its chunk: a worker's rows share shapes and boxed strings across its
	// chunks. No more parse tasks run than there are workers, so a take
	// never waits.
	decoders chan *jparse.Decoder

	segs []*segTask

	// The reader's results, valid once order is closed.
	hash    string
	bytes   int64
	readErr error
}

func (p *pipeline) stopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// submit queues a task for the workers. The queue may be full; workers never
// submit, so it always drains.
func (p *pipeline) submit(task func()) {
	p.busy.Add(1)
	p.tasks <- func() {
		defer p.busy.Add(-1)
		task()
	}
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

var errStopped = errors.New("ingest stopped")

// chunkBuffers recycles chunk byte buffers, across ingests too: a chunk's
// bytes are dead once it is parsed.
var chunkBuffers = sync.Pool{New: func() any { return []byte(nil) }}

// read is the reader goroutine: one pass over the source, every chunk
// hashed, then queued for parsing and listed in order.
func (p *pipeline) read() error {
	// A chunk needs a slot before it is read, so a stalled assembler stops
	// the reader, not just the parsing.
	nextBuffer := func() ([]byte, error) {
		select {
		case p.chunkSlots <- struct{}{}:
			return chunkBuffers.Get().([]byte), nil
		case <-p.stop:
			return nil, errStopped
		}
	}
	buf, err := nextBuffer()
	if err != nil {
		return err
	}
	next := 0
	p.hash, p.bytes, err = readSource(p.source, "ingest", p.chunkSize, buf, func(path string, data []byte) ([]byte, error) {
		c := &chunk{idx: next, path: path, data: data, done: make(chan struct{})}
		next++
		p.order <- c // never blocks: the chunk holds a slot
		p.submit(func() { p.parse(c) })
		return nextBuffer()
	})
	return err
}

// parse decodes the lines of c with a worker's decoder: the rows it decodes
// share item.Shapes, which the segment builder keys its per-shape work by.
func (p *pipeline) parse(c *chunk) {
	defer close(c.done)
	c.err = named(p.source, sched.Safely(func() error {
		if p.stopped() {
			return errStopped
		}
		hook("parse", c.idx)
		dec := <-p.decoders
		defer func() { p.decoders <- dec }()
		err := dfs.Lines(c.data, func(line []byte) error {
			it, err := dec.Decode(line)
			if err != nil {
				return errf(c.path, "ingest: %v", err)
			}
			c.rows = append(c.rows, it)
			return nil
		})
		hook("rows", len(c.rows))
		return err
	}))
	chunkBuffers.Put(c.data[:0])
	c.data = nil
}

// assemble runs on the ingesting goroutine: it takes the parsed chunks in
// scan order — so the first error it meets is the first in scan order,
// whichever task failed first — and cuts their rows into segments, each
// dispatched to the workers as soon as it is full.
func (p *pipeline) assemble() error {
	rows := make([]item.Item, 0, Rows)
	for c := range p.order {
		<-c.done
		<-p.chunkSlots
		if c.err != nil {
			return c.err
		}
		for rest := c.rows; len(rest) > 0; {
			n := min(Rows-len(rows), len(rest))
			rows = append(rows, rest[:n]...)
			rest = rest[n:]
			if len(rows) == Rows {
				p.dispatch(rows)
				rows = make([]item.Item, 0, Rows)
			}
		}
	}
	if p.readErr != nil {
		return p.readErr
	}
	if len(rows) > 0 {
		p.dispatch(rows)
	}
	return nil
}

// dispatch hands one segment's rows to the workers. A segment is normally
// one task; when workers sit idle as it is dispatched — the source has
// nothing left to parse, or never had enough to go round — its columns
// split into one lane group per idle worker.
func (p *pipeline) dispatch(rows []item.Item) {
	hook("assemble", len(p.segs))
	p.segSlots <- struct{}{}
	s := &segTask{idx: len(p.segs), b: newBuilder(rows)}
	p.segs = append(p.segs, s)
	n := max(1, p.workers-int(p.busy.Load()))
	s.groups = make([]*laneGroup, n)
	s.pending.Store(int32(n))
	for g := 0; g < n; g++ {
		p.submit(func() { p.encode(s, g) })
	}
}

// encode builds lane group g of s; the worker that completes the last group
// finishes the segment.
func (p *pipeline) encode(s *segTask, g int) {
	err := named(p.source, sched.Safely(func() error {
		if p.stopped() || s.failed() {
			return nil
		}
		hook("encode", s.idx)
		s.groups[g] = s.b.lanes(g, len(s.groups))
		return nil
	}))
	if err != nil {
		s.fail(err)
	}
	if s.pending.Add(-1) > 0 {
		return
	}
	err = named(p.source, sched.Safely(func() error {
		if p.stopped() || s.failed() {
			return nil
		}
		name := fmt.Sprintf("seg-%05d.rseg", s.idx)
		f, err := os.OpenFile(filepath.Join(p.tmp, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return errf(p.source, "ingest: %v", err)
		}
		defer f.Close() // after a panic; the checked Close is below
		var w imageWriter = f
		if testWriter != nil {
			w = testWriter(f)
		}
		size, crc, zones, err := s.b.finish(s.groups, w)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return errf(p.source, "ingest: %v", err)
		}
		s.meta = Meta{File: name, Rows: len(s.b.rows), Bytes: size, CRC: crc, Cols: zones}
		return nil
	}))
	if err != nil {
		s.fail(err)
	}
	hook("rows", -len(s.b.rows))
	s.b, s.groups = nil, nil
	<-p.segSlots
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

	p := &pipeline{
		source: source, tmp: tmp, workers: workers, chunkSize: chunkSize,
		// Every queued task is a parse of a chunk holding a slot or a lane
		// group of a segment holding one; at this size a submit only blocks
		// when a fully fanned-out segment meets a full set of chunks.
		tasks:      make(chan func(), 2*workers+1),
		order:      make(chan *chunk, workers+1), // one per chunk slot
		stop:       make(chan struct{}),
		chunkSlots: make(chan struct{}, workers+1),
		segSlots:   make(chan struct{}, workers),
		decoders:   make(chan *jparse.Decoder, workers),
	}
	for i := 0; i < workers; i++ {
		p.decoders <- jparse.NewDecoder()
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		sched.Go(&wg, func() error {
			for task := range p.tasks {
				task() // a task contains its own panics: its result must resolve
			}
			return nil
		}, func(error) {})
	}
	sched.Go(&wg, p.read, func(err error) {
		if err != errStopped {
			p.readErr = named(source, err)
		}
		close(p.order)
	})

	// A panic while assembling is one more failure: the reader and the
	// workers are still joined below.
	err = named(source, sched.Safely(p.assemble))
	if err != nil {
		close(p.stop)
		for range p.order {
			// Let the reader run into the stop.
		}
	}
	close(p.tasks)
	wg.Wait()
	// Every segment dispatched precedes, in scan order, the chunk whose
	// error stopped the assembly: a segment's failure comes first.
	for _, s := range p.segs {
		if s.err != nil {
			err = s.err
			break
		}
	}
	if err != nil {
		return nil, IngestStats{}, err
	}

	m := Manifest{Version: Version, SourceHash: p.hash, SourceBytes: p.bytes}
	for _, s := range p.segs {
		m.Segments = append(m.Segments, s.meta)
		m.Rows += int64(s.meta.Rows)
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
