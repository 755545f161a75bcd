package segment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"

	"rumble/internal/dfs"
)

// SourceName is the file inside a segments directory that binds its
// manifest to a stat fingerprint of the source the manifest was built from.
// It is kept apart from the manifest because inodes and change times differ
// between copies of the same bytes, while the manifest and segment images
// are identical for every ingest of those bytes. A missing, unparsable or
// mismatched SOURCE.json only means "hash the source to validate it".
const SourceName = "SOURCE.json"

// settleWait caps how long a fingerprint waits for the file system clock to
// tick past the parts' last change before it is given up as racy.
const settleWait = 100 * time.Millisecond

// part is the stat fingerprint of one part file of a source: everything
// that a write, a truncation, an os.Chtimes or a replace-by-rename changes.
type part struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	Mtime int64  `json:"mtime_ns"`
	Ctime int64  `json:"ctime_ns"`
	Ino   uint64 `json:"ino"`
}

// fingerprint is the stat of every part file of a source, in scan order. A
// nil fingerprint is no fingerprint — the platform reports no change time or
// inode, or the source could not be listed — and matches nothing, so
// whatever it would have vouched for is hashed instead.
type fingerprint struct {
	Parts []part
}

// statSource fingerprints the part files dfs.ListSplits lists for source:
// the same files, in the same order, that an ingest or SourceHash reads.
func statSource(source string) *fingerprint {
	splits, err := dfs.ListSplits(source, 1<<62) // one split per file
	if err != nil {
		return nil
	}
	fp := &fingerprint{Parts: make([]part, len(splits))}
	for i, sp := range splits {
		fi, err := os.Stat(sp.Path)
		if err != nil {
			return nil
		}
		ctime, ino, ok := statSys(fi)
		if !ok {
			return nil
		}
		fp.Parts[i] = part{Name: filepath.Base(sp.Path), Size: fi.Size(), Mtime: fi.ModTime().UnixNano(), Ctime: ctime, Ino: ino}
	}
	return fp
}

// matches reports whether f and g are both fingerprints and agree on every
// part.
func (f *fingerprint) matches(g *fingerprint) bool {
	return f != nil && g != nil && slices.Equal(f.Parts, g.Parts)
}

// latest returns the latest modification or change time of any part.
func (f *fingerprint) latest() int64 {
	var t int64
	for _, p := range f.Parts {
		t = max(t, p.Mtime, p.Ctime)
	}
	return t
}

// settle returns fp once the file system clock has ticked past every time
// stamp it holds, and nil if that takes longer than settleWait. The clock is
// read as the mtime probe gets when written: time.Now is not the clock files
// are stamped with. fp must have been taken before settle is called, and
// the bytes it will vouch for must be read after it returns.
//
// This is git's "racy clean" rule, applied once when the fingerprint is
// taken instead of on every comparison. A settled fingerprint can only be
// reproduced by the bytes it was taken over: every later write stamps the
// file's mtime, and every later os.Chtimes its ctime, with a time no earlier
// than the clock settle read, which is later than every stamp fp recorded.
func settle(fp *fingerprint, probe *os.File) *fingerprint {
	if fp == nil || probe == nil {
		return nil
	}
	last := fp.latest()
	deadline := time.Now().Add(settleWait)
	for {
		if _, err := probe.Write([]byte{'\n'}); err != nil {
			return nil
		}
		fi, err := probe.Stat()
		if err != nil {
			return nil
		}
		clock := fi.ModTime().UnixNano()
		if last < clock {
			return fp
		}
		// A part stamped further ahead than the wait (a file from the
		// future) never settles in time: give up without waiting.
		if last-clock > int64(settleWait) || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// sourceRecord is the content of SOURCE.json: a settled fingerprint of the
// source and the checksum of the manifest whose content hash it vouches for.
type sourceRecord struct {
	Manifest uint32 `json:"manifest_checksum"`
	Parts    []part `json:"parts"`
}

// recordedSource returns the fingerprint dir's SOURCE.json records for the
// manifest sealed with checksum; nil when there is none, it does not parse,
// or it belongs to another manifest.
func recordedSource(dir string, checksum uint32) *fingerprint {
	data, err := os.ReadFile(filepath.Join(dir, SourceName))
	if err != nil {
		return nil
	}
	var rec sourceRecord
	if json.Unmarshal(data, &rec) != nil || rec.Manifest != checksum || rec.Parts == nil {
		return nil
	}
	return &fingerprint{Parts: rec.Parts}
}

// writeRecord writes the SOURCE.json that binds fp to the manifest sealed
// with checksum to path.
func writeRecord(path string, checksum uint32, fp *fingerprint) error {
	data, err := json.MarshalIndent(sourceRecord{Manifest: checksum, Parts: fp.Parts}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
