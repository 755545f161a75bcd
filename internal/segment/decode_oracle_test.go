package segment

import (
	"encoding/binary"
	"math"
	"math/big"

	"rumble/internal/item"
)

// The row decoder: the independent oracle FuzzSegmentDecode,
// TestDecodeTorture and the round-trip tests check the lane decoder and
// ColumnSet.Row against. It shares only the image check and the column
// names and row shapes of the prefix parse with them; the string table is
// read entry by entry, lanes decode to items and rows assemble
// row-at-a-time.

// Decoded is one segment's decoded contents: the materialized rows and
// the column dictionary.
type Decoded struct {
	Rows []item.Item
	Cols []string
}

// Decode parses a segment byte image back into rows. Every malformation —
// truncation, a flipped bit anywhere in the payload (checksum), invalid
// lane data — returns a structured error; Decode never panics on
// corrupted input (FuzzSegmentDecode enforces this).
func Decode(path string, data []byte) (*Decoded, error) {
	img, err := openImage(path, data)
	if err != nil {
		return nil, err
	}
	p, err := parsePrefix(img)
	if err != nil {
		return nil, err
	}
	table, err := readTable(img)
	if err != nil {
		return nil, err
	}
	rows := img.rows
	cols, r := p.names, &reader{path: path, data: img.payload, off: p.laneOff}
	// Lanes: decode each column into a full-length item lane (nil = absent).
	lanes := make([][]item.Item, len(cols))
	for ci := range cols {
		lr, err := laneBlock(r, cols[ci], true)
		if err != nil {
			return nil, err
		}
		if len(lr.data) < rows {
			return nil, errf(path, "column %q: truncated tag lane", cols[ci])
		}
		tags := lr.data[:rows]
		lr.off = rows
		lane := make([]item.Item, rows)
		for ri := 0; ri < rows; ri++ {
			switch tags[ri] {
			case tagAbsent:
			case tagNull:
				lane[ri] = item.Null{}
			case tagFalse:
				lane[ri] = item.Bool(false)
			case tagTrue:
				lane[ri] = item.Bool(true)
			case tagInt:
				v, err := lr.varint()
				if err != nil {
					return nil, err
				}
				lane[ri] = item.Int(v)
			case tagDouble:
				if len(lr.data)-lr.off < 8 {
					return nil, errf(path, "column %q: truncated double lane", cols[ci])
				}
				lane[ri] = item.Double(math.Float64frombits(binary.LittleEndian.Uint64(lr.data[lr.off:])))
				lr.off += 8
			case tagString:
				code, err := lr.uvarint()
				if err != nil {
					return nil, err
				}
				if code >= uint64(len(table)) {
					return nil, errf(path, "column %q row %d: string code %d out of range", cols[ci], ri, code)
				}
				lane[ri] = item.Str(table[code])
			case tagDec:
				s, err := lr.str()
				if err != nil {
					return nil, err
				}
				rat, ok := new(big.Rat).SetString(s)
				if !ok {
					return nil, errf(path, "column %q: invalid decimal %q", cols[ci], s)
				}
				lane[ri] = item.NewDecimal(rat)
			case tagItem:
				raw, err := lr.sized()
				if err != nil {
					return nil, err
				}
				vr := &reader{path: path, data: raw}
				v, err := vr.value(0)
				if err != nil {
					return nil, err
				}
				lane[ri] = v
			default:
				return nil, errf(path, "column %q row %d: invalid lane tag %d", cols[ci], ri, tags[ri])
			}
		}
		if lr.off != len(lr.data) {
			return nil, errf(path, "column %q: %d trailing lane bytes", cols[ci], len(lr.data)-lr.off)
		}
		lanes[ci] = lane
	}
	if r.off != len(r.data) {
		return nil, errf(path, "%d trailing payload bytes", len(r.data)-r.off)
	}
	out := make([]item.Item, rows)
	for ri, s := range p.shapeOf {
		if s < 0 {
			out[ri] = p.overflow[^s]
			continue
		}
		ids := p.shapes[s].ids
		keys := make([]string, len(ids))
		values := make([]item.Item, len(ids))
		for i, id := range ids {
			keys[i] = cols[id]
			v := lanes[id][ri]
			if v == nil {
				return nil, errf(path, "row %d: shape lists column %q but its lane is absent", ri, cols[id])
			}
			values[i] = v
		}
		out[ri] = item.NewObject(keys, values)
	}
	return &Decoded{Rows: out, Cols: cols}, nil
}

// readTable reads the string table of a validated image as one string per
// entry, skipping the column names before it.
func readTable(img image) ([]string, error) {
	r := &reader{path: img.path, data: img.payload}
	ncols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for ; ncols > 0; ncols-- {
		if _, err := r.sized(); err != nil {
			return nil, err
		}
	}
	nstr, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nstr > uint64(len(img.payload)) {
		return nil, errf(img.path, "string table lists %d entries in %d payload bytes", nstr, len(img.payload))
	}
	table := make([]string, nstr)
	for i := range table {
		if table[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return table, nil
}
