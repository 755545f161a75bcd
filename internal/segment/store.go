package segment

import (
	"bytes"
	"container/list"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rumble/internal/dfs"
	"rumble/internal/item"
	"rumble/internal/sched"
)

// ManifestName is the dataset manifest file inside a segments directory.
const ManifestName = "MANIFEST.json"

// Dir returns the segments directory of a JSON-lines source path: a
// sibling "<path>.segments" directory, which dfs.ListSplits never
// confuses with part files of the source.
func Dir(source string) string { return source + ".segments" }

// Meta describes one segment in the manifest: its file, row count, file
// size, the CRC-32 its image header records (binding the file to this
// entry) and per-column zone maps (sorted by column name).
type Meta struct {
	File  string    `json:"file"`
	Rows  int       `json:"rows"`
	Bytes int64     `json:"bytes"`
	CRC   uint32    `json:"crc"`
	Cols  []ColZone `json:"cols"`
}

// Zone returns the zone map of the named column, when any row of the
// segment has it.
func (m Meta) Zone(name string) (ZoneMap, bool) {
	i := sort.Search(len(m.Cols), func(i int) bool { return m.Cols[i].Name >= name })
	if i < len(m.Cols) && m.Cols[i].Name == name {
		return m.Cols[i].Zone, true
	}
	return ZoneMap{}, false
}

// ColumnNames lists every column some row of the segment has, sorted: the
// fields a whole-row reader fetches.
func (m Meta) ColumnNames() []string {
	names := make([]string, len(m.Cols))
	for i, cz := range m.Cols {
		names[i] = cz.Name
	}
	return names
}

// Manifest is the dataset-level metadata: the content hash of the source
// it was ingested from and the ordered segment list, sealed by a checksum
// over all of it.
type Manifest struct {
	Version     int    `json:"version"`
	Checksum    uint32 `json:"checksum"`
	SourceHash  string `json:"source_hash"`
	SourceBytes int64  `json:"source_bytes"`
	Rows        int64  `json:"rows"`
	Segments    []Meta `json:"segments"`
}

// checksum is the CRC-32 of m's canonical encoding — compact JSON with the
// Checksum field zeroed — so it covers every field the engine reads.
func (m Manifest) checksum() uint32 {
	m.Checksum = 0
	data, _ := json.Marshal(m) // plain data: cannot fail
	return crc32.ChecksumIEEE(data)
}

// sealed reports whether m's recorded checksum matches its content.
func (m Manifest) sealed() bool { return m.Checksum == m.checksum() }

// Dataset is an opened, validated segment dataset. FetchBatch serves
// decoded segments, through the owning store's buffer pool when there is
// one.
type Dataset struct {
	Source   string
	Dir      string
	Manifest Manifest
	pool     *pool
	fp       *fingerprint // the source fingerprint it was validated against
	keys     []string     // keys[i] is segment i's buffer-pool key
}

// newDataset returns the dataset of manifest m, validated against fp.
func newDataset(source, dir string, m Manifest, fp *fingerprint) *Dataset {
	d := &Dataset{Source: source, Dir: dir, Manifest: m, fp: fp, keys: make([]string, len(m.Segments))}
	for i, seg := range m.Segments {
		d.keys[i] = dir + "\x00" + m.SourceHash + "\x00" + seg.File
	}
	return d
}

// NumSegments returns the segment count.
func (d *Dataset) NumSegments() int { return len(d.Manifest.Segments) }

// Meta returns the manifest entry of segment i.
func (d *Dataset) Meta(i int) Meta { return d.Manifest.Segments[i] }

// key is the buffer-pool residency key of segment i, built once per
// dataset. It includes the manifest's source hash: a background re-ingest
// reuses segment file names, and pool entries decoded from the previous
// generation must never serve the new one.
func (d *Dataset) key(i int) string { return d.keys[i] }

// FetchBatch returns segment i decoded into vector lanes for at least the
// given fields (a whole-row reader passes every column of Meta(i).Cols and
// assembles rows with ColumnSet.Row). coldBlocks is non-zero exactly when
// this call read the segment file — no pool, a cold segment, or a resident
// one that lacked some of the lanes: it reports the simulated I/O blocks
// the read charges, rounded by the same shared accounting rules as raw line
// scans. A segment is one pool entry whatever was projected from it, so
// plans reading {a,b} and {a,c} share lane a, and --segment-cache-bytes
// bounds distinct decoded bytes.
func (d *Dataset) FetchBatch(i int, fields []string) (cs *ColumnSet, coldBlocks int, err error) {
	if d.pool == nil {
		return d.load(i, nil, fields)
	}
	return d.pool.get(d.key(i), d.Manifest.Segments[i].Bytes, fields, func(cur *ColumnSet) (*ColumnSet, int, error) {
		return d.load(i, cur, fields)
	})
}

// readBuffers recycles the buffers segment files are read into: a decode
// never aliases its image, so a buffer is free again once load returns.
// There is at most one per concurrent load, and the free list keeps at
// most dfs.FreeListMax of them, each as large as the largest file it read.
var readBuffers = dfs.FreeList[*bytes.Buffer]{New: func() *bytes.Buffer { return new(bytes.Buffer) }}

// load reads segment i's file and decodes the lanes of fields that cur (nil
// when nothing is resident) does not hold yet, reporting the read's I/O
// blocks. The image must be the one the manifest binds: its header CRC —
// which the payload was just checked against — equals the manifest's, so
// the sealed zone maps and row count describe these very lanes.
func (d *Dataset) load(i int, cur *ColumnSet, fields []string) (*ColumnSet, int, error) {
	meta := d.Manifest.Segments[i]
	path := filepath.Join(d.Dir, meta.File)
	buf := readBuffers.Get()
	defer readBuffers.Put(buf)
	if err := readFile(buf, path); err != nil {
		return nil, 0, errf(path, "read: %v", err)
	}
	img, err := openImage(path, buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	if img.crc != meta.CRC {
		return nil, 0, errf(path, "CRC mismatch: image %08x, manifest binds %08x (not the segment file ingested)", img.crc, meta.CRC)
	}
	cs, err := cur.grow(img, fields)
	if err != nil {
		return nil, 0, err
	}
	if cs.NumRows != meta.Rows {
		return nil, 0, errf(path, "segment holds %d rows, manifest says %d", cs.NumRows, meta.Rows)
	}
	return cs, dfs.BlocksFor(int64(buf.Len())), nil
}

// readFile replaces buf's contents with the file at path, growing buf at
// most once, to the file's size.
func readFile(buf *bytes.Buffer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf.Reset()
	if fi, err := f.Stat(); err == nil {
		buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(f)
	return err
}

// OpenDataset loads and strictly validates the segment directory of
// source without re-ingesting: a missing or unreadable manifest, a
// version mismatch, a manifest whose checksum does not match its content,
// or a source whose content no longer matches the manifest (stale
// segments) each return a structured error. The source is hashed only when
// its stat fingerprint differs from the settled one SOURCE.json records.
func OpenDataset(source string) (*Dataset, error) {
	return openDataset(source, statSource(source), nil)
}

// openDataset is OpenDataset given now, the source's fingerprint taken
// before the call; onHash, when set, is called once per hash of the source.
// A source that hashes to the manifest's content hash gets a settled
// SOURCE.json recorded for it, so a touched but unchanged source costs one
// hash, not one per open; failing to record it only costs the next open a
// hash. The dataset returned carries the fingerprint it was validated
// against: now when SOURCE.json vouched for it, else the settled one
// recorded (nil when the source would not settle).
func openDataset(source string, now *fingerprint, onHash func()) (*Dataset, error) {
	dir := Dir(source)
	mpath := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		return nil, errf(mpath, "read manifest: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, errf(mpath, "parse manifest: %v", err)
	}
	if m.Version != Version {
		return nil, errf(mpath, "manifest version %d, engine supports %d", m.Version, Version)
	}
	if !m.sealed() {
		return nil, errf(mpath, "manifest checksum mismatch: recorded %08x, content %08x", m.Checksum, m.checksum())
	}
	ds := newDataset(source, dir, m, nil)
	if now.matches(recordedSource(dir, m.Checksum)) {
		ds.fp = now
		return ds, nil
	}
	// The fingerprint does not vouch for the bytes: hash them, settling the
	// fingerprint first — it must be settled before a byte is read.
	probe, err := os.CreateTemp(dir, SourceName+".tmp-*")
	if err == nil {
		defer os.Remove(probe.Name()) // a no-op once renamed into place
		ds.fp = settle(now, probe)
		probe.Close()
	}
	if onHash != nil {
		onHash()
	}
	hash, bytes, err := SourceHash(source)
	if err != nil {
		return nil, err
	}
	if hash != m.SourceHash || bytes != m.SourceBytes {
		return nil, errf(mpath, "stale segments: source content hash changed since ingest (re-ingest required)")
	}
	if ds.fp != nil && writeRecord(probe.Name(), m.Checksum, ds.fp) == nil {
		os.Rename(probe.Name(), filepath.Join(dir, SourceName))
	}
	return ds, nil
}

// SourceHash fingerprints a JSON-lines source (file or directory of part
// files): the sha256 over every data file's name and bytes in scan order,
// plus the total byte count. It reads the source the way an ingest does, so
// the two cannot disagree about which bytes count.
func SourceHash(source string) (string, int64, error) {
	return readSource(source, "hash", hashChunkSize, nil, func(_ string, chunk []byte) ([]byte, error) { return chunk, nil })
}

// hashChunkSize is the chunk size of a pass that only hashes: nothing fans
// out, so the buffer stays small enough to be hashed out of cache.
const hashChunkSize = 64 << 10

// Store serves segment datasets to the engine: one validated (and, when
// needed, ingested) Dataset per source path, sharing one byte-bounded LRU
// buffer pool of decoded segments across all of them. Every open re-stats
// the source, so a source that changes under a long-lived store is never
// answered from its old segments.
type Store struct {
	pool *pool

	mu       sync.Mutex
	datasets map[string]*datasetEntry
	rebuilds sync.WaitGroup

	// Workers is the size of the worker set an ingest of this store parses
	// and encodes on (0 uses every core); set before the store serves
	// queries. The segments written do not depend on it.
	Workers int
	// OnReingest, when set before the store serves queries, is called once
	// per background re-ingest that completed successfully (metrics hook).
	OnReingest func()
	// OnIngest, set the same way, is called once per ingest that completed
	// successfully, first touch or background rebuild.
	OnIngest func(IngestStats)
	// OnSourceHash, set the same way, is called once per full hash of a
	// source that an open ran to validate existing segments.
	OnSourceHash func()
}

// datasetEntry is what a store serves for one path — a dataset, or the
// error that made the path unsegmentable — and the source fingerprint that
// holds for: while the source still stats the same, the entry is served as
// is; once it does not, the next open revalidates it.
type datasetEntry struct {
	mu         sync.Mutex
	rebuilding bool
	fp         *fingerprint
	ds         *Dataset
	err        error
}

// set records an open's outcome. A dataset holds for the fingerprint it was
// validated against. An error holds for now, the stat taken before the
// attempt, settled or not: an unsegmentable source is scanned raw, which
// reads the current bytes, so a stale error can only postpone a retry.
func (e *datasetEntry) set(ds *Dataset, now *fingerprint, err error) {
	e.ds, e.err, e.fp = ds, err, now
	if ds != nil {
		e.fp = ds.fp
	}
}

// DefaultCacheBytes is the buffer-pool budget when none is configured.
const DefaultCacheBytes = 64 << 20

// NewStore creates a store whose buffer pool holds about cacheBytes of
// segment files decoded (cacheBytes <= 0 uses DefaultCacheBytes).
func NewStore(cacheBytes int64) *Store {
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	return &Store{pool: newPool(cacheBytes), datasets: map[string]*datasetEntry{}}
}

// Open returns the segment dataset of the JSON-lines source at path. Every
// call stats the source's part files; while they match what the path was
// last validated against, the dataset (or error) in hand is served. A
// source never ingested before (no manifest) ingests synchronously — the
// first touch pays the build. A source whose existing segments are stale
// (the content hash changed since ingest) or from an older format version
// is served as (nil, nil) — the raw scan — while a single background
// goroutine per path rebuilds the segments and swaps them in; later Opens
// see the fresh dataset. A nil Dataset with a nil error therefore means
// "scan raw for now"; a non-nil error means the source is not segmentable
// (for example, a line fails to parse) and the raw scan will report the
// identical error the tuple backend would. Such a source is retried once
// its files change.
func (s *Store) Open(path string) (*Dataset, error) {
	ds, _, err := s.OpenStats(path)
	return ds, err
}

// OpenStats is Open that also tells the one caller whose call ran the
// first-touch ingest what it cost; stats is nil for every other call.
func (s *Store) OpenStats(path string) (ds *Dataset, stats *IngestStats, err error) {
	s.mu.Lock()
	e := s.datasets[path]
	if e == nil {
		e = &datasetEntry{}
		s.datasets[path] = e
	}
	s.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rebuilding {
		return nil, nil, nil
	}
	now := statSource(path)
	if e.fp.matches(now) {
		return e.ds, nil, e.err
	}
	if _, statErr := os.Stat(filepath.Join(Dir(path), ManifestName)); statErr != nil {
		// First touch — or a retry of a source that failed to ingest and has
		// changed since: no segments exist yet. Build them synchronously so
		// the very first scan already reads lanes, not JSON. (Should another
		// engine install them meanwhile, the ingest adopts its directory.)
		ds, st, err := s.ingest(path)
		e.set(ds, now, err)
		if err != nil {
			return nil, nil, err
		}
		return ds, &st, nil
	}
	if ds, err = openDataset(path, now, s.OnSourceHash); err == nil {
		ds.pool = s.pool
		e.set(ds, now, nil)
		return ds, nil, nil
	}
	// A manifest exists but refused to open — stale content hash, older
	// format version, or corruption. Serve the raw scan immediately and
	// rebuild in the background, single-flight per path. On failure the
	// entry resolves to the error: scans keep falling back to raw lines,
	// which report the same source problem.
	e.rebuilding = true
	var rebuilt *Dataset
	sched.Go(&s.rebuilds, func() error {
		hook("rebuild", 0)
		var err error
		rebuilt, _, err = s.ingest(path)
		return err
	}, func(err error) {
		err = named(path, err)
		e.mu.Lock()
		e.rebuilding = false
		e.set(rebuilt, now, err)
		e.mu.Unlock()
		if err == nil && s.OnReingest != nil {
			s.OnReingest()
		}
	})
	return nil, nil, nil
}

// ingest builds the dataset of path on the store's workers and binds it to
// the store's pool: the manifest in hand is the dataset, nothing is re-read.
func (s *Store) ingest(path string) (*Dataset, IngestStats, error) {
	ds, st, err := ingest(path, s.Workers, ingestChunkSize)
	if err != nil {
		return nil, st, err
	}
	ds.pool = s.pool
	if s.OnIngest != nil {
		s.OnIngest(st)
	}
	return ds, st, nil
}

// WaitRebuilds blocks until every background re-ingest started so far has
// settled. It exists for tests and orderly shutdown.
func (s *Store) WaitRebuilds() { s.rebuilds.Wait() }

// --- buffer pool: byte-bounded LRU of decoded segments ---

// pool mirrors the server's compiled-plan cache: a doubly linked list in
// recency order plus an index, one entry per segment, with loading outside
// the pool lock. The charged bytes never exceed the budget: an entry that
// alone is larger than the whole pool is served to its fetcher (and to the
// fetchers already waiting on it) but not retained.
type pool struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
}

// poolEntry is one segment's residency. cost is the bytes the pool charges
// for it, guarded by pool.mu. load serializes the entry's decodes — it is
// the single-flight: concurrent fetchers of a cold segment block on it and
// find the lanes resident — and guards cs, the immutable snapshot that is
// replaced, never modified, when a fetch adds lanes.
type poolEntry struct {
	key  string
	cost int64

	load sync.Mutex
	cs   *ColumnSet
}

func newPool(capBytes int64) *pool {
	return &pool{capBytes: capBytes, order: list.New(), entries: map[string]*list.Element{}}
}

// get returns the snapshot under key once it holds every one of fields,
// calling grow with the current snapshot (nil for a cold entry) when it
// does not. grow's snapshot settles the entry's cost — provisionally the
// file size — to the bytes it actually pins: the sum of the resident lanes,
// each counted once however many projections read it. coldBlocks is
// non-zero only for the caller whose grow ran — the one that must charge
// the simulated I/O. A failed grow is never cached: a cold entry is
// dropped, a resident one keeps its lanes, and the next get retries instead
// of replaying a possibly transient error until eviction.
func (p *pool) get(key string, cost int64, fields []string, grow func(cur *ColumnSet) (*ColumnSet, int, error)) (*ColumnSet, int, error) {
	p.mu.Lock()
	el, ok := p.entries[key]
	if ok {
		p.order.MoveToFront(el)
	} else {
		el = p.order.PushFront(&poolEntry{key: key, cost: cost})
		p.entries[key] = el
		p.bytes += cost
		p.evict()
	}
	e := el.Value.(*poolEntry)
	p.mu.Unlock()

	e.load.Lock()
	defer e.load.Unlock()
	if e.cs.has(fields) {
		return e.cs, 0, nil
	}
	cs, blocks, err := grow(e.cs)
	if err == nil {
		e.cs = cs
	}
	// Settle the pool accounting, unless the entry was evicted meanwhile
	// (the caller still gets its snapshot; nothing stays charged).
	p.mu.Lock()
	if p.entries[key] == el {
		if e.cs == nil {
			p.order.Remove(el)
			delete(p.entries, key)
			p.bytes -= e.cost
		} else if actual := e.cs.MemBytes(); actual != e.cost {
			p.bytes += actual - e.cost
			e.cost = actual
			p.evict()
		}
	}
	p.mu.Unlock()
	return cs, blocks, err
}

// evict removes least recently used entries until the pool fits its
// budget; the entry just used is at the front and goes last. Callers hold
// p.mu.
func (p *pool) evict() {
	for p.bytes > p.capBytes {
		victim := p.order.Remove(p.order.Back()).(*poolEntry)
		delete(p.entries, victim.key)
		p.bytes -= victim.cost
	}
}

const (
	ifaceBytes  = 16 // interface header
	stringBytes = 16 // string header
)

func itemCost(v item.Item) int64 {
	switch t := v.(type) {
	case nil, item.Null, item.Bool:
		return 0 // value lives in (or beside) the interface word
	case item.Int, item.Double:
		return 8
	case item.Str:
		return stringBytes + int64(len(t))
	case item.Dec:
		rat := t.Rat()
		return 96 + int64(len(rat.Num().Bits())+len(rat.Denom().Bits()))*8
	case *item.Array:
		n := int64(48) // Array struct + member slice header
		for _, m := range t.Members() {
			n += ifaceBytes + itemCost(m)
		}
		return n
	case *item.Object:
		n := int64(64) // Object struct + two slice headers
		for i := 0; i < t.Len(); i++ {
			n += stringBytes + ifaceBytes + itemCost(t.ValueAt(i))
		}
		if t.Len() > 8 {
			n += int64(t.Len()) * 48 // key lookup index
		}
		return n
	default:
		return 64
	}
}
