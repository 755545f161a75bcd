// Package profile records per-query execution statistics: one counter
// set per plan operator (rows out, batches, wall time), per-worker
// busy/wait time for the morsel-parallel path, and the coarse phase
// timings a server wants (queue, compile, execute, stream).
//
// The design goal is near-zero cost when profiling is off. Every
// recording method is nil-safe — a nil *Profile or nil *Op no-ops — so
// instrumented code resolves its *Op once per evaluation and calls
// through without further checks. Counters are atomics because the
// vector backend records from concurrent morsel workers; phase fields
// are plain int64s written by the single coordinating goroutine.
package profile

import (
	"sync"
	"sync/atomic"
	"time"
)

// OpDesc describes one plan operator: a display name (mirroring the
// --explain rendering) and the index of its input operator in the same
// profile, or -1 for sources. Rows-in is derived at snapshot time as
// the input's rows-out, so execution never pays for it.
type OpDesc struct {
	Name  string
	Input int
}

// Op is the live counter set for one operator. The zero value is ready
// to use; all methods no-op on a nil receiver.
type Op struct {
	rowsOut atomic.Int64
	batches atomic.Int64
	wallNS  atomic.Int64
	note    atomic.Pointer[string]
}

// AddRows records n output rows (tuples or vector rows).
func (o *Op) AddRows(n int64) {
	if o == nil {
		return
	}
	o.rowsOut.Add(n)
}

// AddBatches records n batches (morsels on the vector path, one per
// Stream call on the tuple path).
func (o *Op) AddBatches(n int64) {
	if o == nil {
		return
	}
	o.batches.Add(n)
}

// AddWall adds inclusive wall time spent in this operator.
func (o *Op) AddWall(d time.Duration) {
	if o == nil {
		return
	}
	o.wallNS.Add(int64(d))
}

// SetNote attaches a one-off remark about this evaluation of the operator —
// the first-touch ingest a scan paid, say — rendered after its counters.
func (o *Op) SetNote(note string) {
	if o == nil {
		return
	}
	o.note.Store(&note)
}

// RowsOut returns the rows recorded so far.
func (o *Op) RowsOut() int64 {
	if o == nil {
		return 0
	}
	return o.rowsOut.Load()
}

// Profile is one query's complete measurement set. Allocate via New
// with the operator descriptors the compiler registered; a nil
// *Profile is the "profiling off" state and every method on it no-ops.
type Profile struct {
	descs []OpDesc
	ops   []Op

	// Workers is the morsel worker-pool size used by the parallel
	// vector path (0 when the query ran serially).
	Workers atomic.Int64
	// BusyNS / WaitNS accumulate, across all workers, time spent
	// processing morsels vs. blocked waiting for one.
	BusyNS atomic.Int64
	WaitNS atomic.Int64

	// Phase timings, written by the single goroutine driving the
	// query (a server handler or the CLI).
	QueueNS   int64
	CompileNS int64
	ExecuteNS int64
	StreamNS  int64
	TotalNS   int64
	CacheHit  bool

	QueryID string
	Query   string
	Mode    string
	Start   time.Time
}

// New returns a Profile with one Op per descriptor.
func New(descs []OpDesc) *Profile {
	return &Profile{descs: descs, ops: make([]Op, len(descs))}
}

// Op returns the i-th operator's counters, or nil when the profile is
// nil or i is out of range — safe to call and safe to record on.
func (p *Profile) Op(i int) *Op {
	if p == nil || i < 0 || i >= len(p.ops) {
		return nil
	}
	return &p.ops[i]
}

// AddBusy records worker time spent processing (parallel vector path).
func (p *Profile) AddBusy(d time.Duration) {
	if p == nil {
		return
	}
	p.BusyNS.Add(int64(d))
}

// AddWait records worker time spent blocked on the morsel queue.
func (p *Profile) AddWait(d time.Duration) {
	if p == nil {
		return
	}
	p.WaitNS.Add(int64(d))
}

// SetWorkers records the worker-pool size.
func (p *Profile) SetWorkers(n int) {
	if p == nil {
		return
	}
	p.Workers.Store(int64(n))
}

// OpStats is the rendered form of one operator's counters. Input is the
// index of the operator's input in the same snapshot (-1 for sources),
// so consumers can rebuild the operator chain.
type OpStats struct {
	Name    string  `json:"name"`
	Input   int     `json:"input"`
	RowsIn  int64   `json:"rows_in"`
	RowsOut int64   `json:"rows_out"`
	Batches int64   `json:"batches,omitempty"`
	WallMS  float64 `json:"wall_ms"`
	Note    string  `json:"note,omitempty"`
}

// Snapshot is a point-in-time, JSON-ready copy of a Profile. It is
// what the server envelope's "profile" section, the slow-query log and
// /debug/queries all serialize.
type Snapshot struct {
	QueryID   string    `json:"query_id,omitempty"`
	Query     string    `json:"query,omitempty"`
	Mode      string    `json:"mode,omitempty"`
	Time      time.Time `json:"time"`
	QueueMS   float64   `json:"queue_ms"`
	CompileMS float64   `json:"compile_ms"`
	ExecuteMS float64   `json:"execute_ms"`
	StreamMS  float64   `json:"stream_ms"`
	TotalMS   float64   `json:"total_ms"`
	CacheHit  bool      `json:"cache_hit"`
	Workers   int64     `json:"workers,omitempty"`
	BusyMS    float64   `json:"busy_ms,omitempty"`
	WaitMS    float64   `json:"wait_ms,omitempty"`
	Ops       []OpStats `json:"operators,omitempty"`
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// Snapshot renders the profile. Rows-in for each operator is derived
// from its input operator's rows-out (-1 when the operator has no
// input, i.e. it is a source). Safe on a nil profile (zero Snapshot).
func (p *Profile) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	s := Snapshot{
		QueryID:   p.QueryID,
		Query:     p.Query,
		Mode:      p.Mode,
		Time:      p.Start,
		QueueMS:   ms(p.QueueNS),
		CompileMS: ms(p.CompileNS),
		ExecuteMS: ms(p.ExecuteNS),
		StreamMS:  ms(p.StreamNS),
		TotalMS:   ms(p.TotalNS),
		CacheHit:  p.CacheHit,
		Workers:   p.Workers.Load(),
		BusyMS:    ms(p.BusyNS.Load()),
		WaitMS:    ms(p.WaitNS.Load()),
	}
	if len(p.descs) > 0 {
		s.Ops = make([]OpStats, len(p.descs))
		for i, d := range p.descs {
			rowsIn := int64(-1)
			if d.Input >= 0 && d.Input < len(p.ops) {
				rowsIn = p.ops[d.Input].rowsOut.Load()
			}
			var note string
			if n := p.ops[i].note.Load(); n != nil {
				note = *n
			}
			s.Ops[i] = OpStats{
				Name:    d.Name,
				Input:   d.Input,
				RowsIn:  rowsIn,
				RowsOut: p.ops[i].rowsOut.Load(),
				Batches: p.ops[i].batches.Load(),
				WallMS:  ms(p.ops[i].wallNS.Load()),
				Note:    note,
			}
		}
	}
	return s
}

// Ring is a bounded, concurrency-safe buffer of the most recent query
// snapshots, newest first on read. The server keeps one for
// GET /debug/queries.
type Ring struct {
	mu   sync.Mutex
	buf  []Snapshot
	next int
	n    int
}

// NewRing returns a ring holding at most capacity snapshots
// (a non-positive capacity is treated as 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Snapshot, capacity)}
}

// Add appends a snapshot, evicting the oldest when full.
func (r *Ring) Add(s Snapshot) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshots returns the held snapshots, newest first.
func (r *Ring) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
