package segment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"rumble/internal/datagen"
	"rumble/internal/dfs"
	"rumble/internal/item"
	"rumble/internal/jparse"
)

// decodeLines decodes JSON lines with one decoder, as an ingest worker does.
func decodeLines(t *testing.T, data []byte) []item.Item {
	t.Helper()
	var rows []item.Item
	dec := jparse.NewDecoder()
	if err := dfs.Lines(data, func(line []byte) error {
		it, err := dec.Decode(line)
		rows = append(rows, it)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// encodeLanes encodes rows, returning their lanes beside the image.
func encodeLanes(t *testing.T, rows []item.Item) (*builder, *laneGroup, []byte, []ColZone) {
	t.Helper()
	b := newBuilder(rows)
	lg := b.lanes()
	var img memImage
	size, crc, zones, err := b.finish(lg, &img)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(img)) || crc != headerCRC(img) || crc != crc32.ChecksumIEEE(img[headerSize:]) {
		t.Fatalf("finish returned size %d crc %08x for a %d-byte image with header crc %08x", size, crc, len(img), headerCRC(img))
	}
	return b, lg, img, zones
}

// TestEncodeDedupesStrings: the lanes number each distinct string once,
// every string value's id names that very string, and the image and zone
// maps match the oracle's.
func TestEncodeDedupesStrings(t *testing.T) {
	var many strings.Builder
	for i := 0; i < 80; i++ { // five times keytab's smallest index
		fmt.Fprintf(&many, "{\"k\": \"v%d\", \"same\": \"v%d\"}\n", i, i%3)
	}
	cases := map[string]string{
		"one string in every row": strings.Repeat("{\"s\": \"only\", \"n\": 1}\n", 300),
		// One string shared by columns a..h, met first in a, last in h.
		"one string in columns of different groups": strings.Repeat("{\"a\": \"x\", \"b\": \"x\", \"c\": \"x\", \"d\": 1, \"e\": \"y\", \"f\": \"x\", \"g\": \"x\", \"h\": \"x\"}\n", 5) +
			"{\"h\": \"x\", \"a\": \"y\"}\n",
		"a lane string in a duplicate-key row": "{\"a\": \"x\", \"b\": \"dup only\"}\n" +
			"{\"b\": \"x\", \"b\": \"x\", \"a\": \"dup only\", \"z\": \"x\"}\n{\"a\": \"x\"}\n",
		"empty and NUL strings": "{\"a\": \"\", \"b\": \"\\u0000\", \"c\": \"a\\u0000\"}\n" +
			"{\"a\": \"\\u0000\", \"b\": \"\", \"c\": \"a\"}\n{\"c\": \"\", \"a\": \"a\\u0000\"}\n",
		"more strings than the smallest table": many.String(),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			rows := decodeLines(t, []byte(src))
			want, err := oracleEncode(rows)
			if err != nil {
				t.Fatal(err)
			}
			wantZones, _ := json.Marshal(oracleZoneMaps(rows))
			b, lg, img, zones := encodeLanes(t, rows)
			if !bytes.Equal(img, want) {
				t.Fatalf("image differs from the oracle's (%d vs %d bytes)", len(img), len(want))
			}
			if got, _ := json.Marshal(zones); !bytes.Equal(got, wantZones) {
				t.Fatalf("zone maps differ:\n got %s\nwant %s", got, wantZones)
			}
			seen := map[string]bool{}
			for _, s := range lg.strs {
				if seen[s] {
					t.Fatalf("%q numbered twice", s)
				}
				seen[s] = true
			}
			checkStringIDs(t, b, lg)
		})
	}
}

// checkStringIDs checks that every string value of the lanes is listed
// under the id its lane holds for it, in row order.
func checkStringIDs(t *testing.T, b *builder, lg *laneGroup) {
	t.Helper()
	for i, col := range b.cols {
		ids := lg.lanes[i].strs
		for ri, r := range b.rows {
			if b.shape[ri] < 0 {
				continue
			}
			if v, _ := r.(*item.Object).Get(col); v != nil {
				if s, ok := v.(item.Str); ok {
					if len(ids) == 0 || lg.strs[ids[0]] != string(s) {
						t.Fatalf("column %q row %d: %q has no id or the wrong one", col, ri, s)
					}
					ids = ids[1:]
				}
			}
		}
		if len(ids) != 0 {
			t.Fatalf("column %q: %d ids more than string values", col, len(ids))
		}
	}
}

// failingWriter passes writes on to an imageWriter until they fail on
// demand: Write calls after the first okWrites, and WriteAt when
// failWriteAt is set.
type failingWriter struct {
	imageWriter
	okWrites    int // -1: no Write fails
	writes      int // Write calls seen
	failWriteAt bool
}

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.okWrites >= 0 && f.writes > f.okWrites {
		return 0, errDiskFull
	}
	return f.imageWriter.Write(p)
}

func (f *failingWriter) WriteAt(p []byte, off int64) (int, error) {
	if f.failWriteAt {
		return 0, errDiskFull
	}
	return f.imageWriter.WriteAt(p, off)
}

// TestFinishReturnsWriteErrors: a writer failing at the first flush, in the
// middle of the body or on the header returns its error, and no write
// follows a failed one.
func TestFinishReturnsWriteErrors(t *testing.T) {
	rows := decodeLines(t, generated(datagen.NewRedditGenerator(5), Rows))
	b := newBuilder(rows)
	var whole memImage
	if _, _, _, err := b.finish(b.lanes(), &whole); err != nil {
		t.Fatal(err)
	}
	flushes := (len(whole) + imageBuffer - 1) / imageBuffer
	if flushes < 4 {
		t.Fatalf("a %d-byte image is only %d flushes: no middle to fail in", len(whole), flushes)
	}
	for _, w := range []*failingWriter{
		{okWrites: 0},
		{okWrites: flushes / 2},
		{okWrites: -1, failWriteAt: true},
	} {
		w.imageWriter = &memImage{}
		_, _, zones, err := b.finish(b.lanes(), w)
		if !errors.Is(err, errDiskFull) || zones != nil {
			t.Fatalf("writes ok %d, header fails %v: finish returned %v, %d zone maps; want the write error",
				w.okWrites, w.failWriteAt, err, len(zones))
		}
		if w.okWrites >= 0 && w.writes != w.okWrites+1 {
			t.Fatalf("writes ok %d: %d Write calls, want none after the failed one", w.okWrites, w.writes)
		}
	}
}

// discardImage is an imageWriter that keeps nothing.
type discardImage struct{}

func (discardImage) Write(p []byte) (int, error)            { return len(p), nil }
func (discardImage) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }

// TestEncodeAllocCeiling pins the bytes lanes and finish allocate for one
// full Reddit segment streamed to a writer that keeps nothing. The ceiling
// is the measured 1.64 MB plus about 15 %: a string intern that regrows as
// strings arrive (a map, or strs grown by append) or an image buffered
// whole before it is written (about 0.8 MB here) trips it.
func TestEncodeAllocCeiling(t *testing.T) {
	const ceiling = 1_890_000 // bytes
	rows := decodeLines(t, generated(datagen.NewRedditGenerator(7), Rows))
	b := newBuilder(rows)
	best := uint64(0)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, _, err := b.finish(b.lanes(), discardImage{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; run == 0 || n < best {
			best = n
		}
	}
	t.Logf("lanes + finish: %d bytes", best)
	if best > ceiling {
		t.Fatalf("lanes + finish allocate %d bytes for one segment, ceiling %d", best, ceiling)
	}
}
