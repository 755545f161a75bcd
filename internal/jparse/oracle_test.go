package jparse

import (
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"rumble/internal/item"
)

// oracleParse is the parser this package shipped before the shape-cached
// decoder replaced it, kept verbatim as the test-only reference the decoder
// is fuzzed against: a fresh key string per member, append-grown slices, no
// projection. It must not change when the decoder does.
func oracleParse(data []byte) (item.Item, error) {
	p := oracleParser{data: data}
	p.skipSpace()
	v, err := p.parseValue(0)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.data) {
		return nil, p.errorf("trailing content at offset %d", p.pos)
	}
	return v, nil
}

type oracleParser struct {
	data []byte
	pos  int
}

func (p *oracleParser) errorf(format string, args ...any) error {
	return fmt.Errorf("json: "+format, args...)
}

func (p *oracleParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *oracleParser) parseValue(depth int) (item.Item, error) {
	if depth > maxDepth {
		return nil, p.errorf("value nested deeper than %d levels", maxDepth)
	}
	if p.pos >= len(p.data) {
		return nil, p.errorf("unexpected end of input")
	}
	switch c := p.data[p.pos]; c {
	case '{':
		return p.parseObject(depth)
	case '[':
		return p.parseArray(depth)
	case '"':
		s, err := p.parseString()
		if err != nil {
			return nil, err
		}
		return item.Str(s), nil
	case 't':
		if err := p.expect("true"); err != nil {
			return nil, err
		}
		return item.Bool(true), nil
	case 'f':
		if err := p.expect("false"); err != nil {
			return nil, err
		}
		return item.Bool(false), nil
	case 'n':
		if err := p.expect("null"); err != nil {
			return nil, err
		}
		return item.Null{}, nil
	default:
		if c == '-' || (c >= '0' && c <= '9') {
			return p.parseNumber()
		}
		return nil, p.errorf("unexpected character %q at offset %d", c, p.pos)
	}
}

func (p *oracleParser) expect(lit string) error {
	if p.pos+len(lit) > len(p.data) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return p.errorf("invalid literal at offset %d", p.pos)
	}
	p.pos += len(lit)
	return nil
}

func (p *oracleParser) parseObject(depth int) (item.Item, error) {
	p.pos++ // '{'
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return item.NewObject(nil, nil), nil
	}
	var keys []string
	var values []item.Item
	for {
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '"' {
			return nil, p.errorf("expected object key at offset %d", p.pos)
		}
		k, err := p.parseString()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != ':' {
			return nil, p.errorf("expected ':' at offset %d", p.pos)
		}
		p.pos++
		p.skipSpace()
		v, err := p.parseValue(depth + 1)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
		values = append(values, v)
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, p.errorf("unterminated object")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return item.NewObject(keys, values), nil
		default:
			return nil, p.errorf("expected ',' or '}' at offset %d", p.pos)
		}
	}
}

func (p *oracleParser) parseArray(depth int) (item.Item, error) {
	p.pos++ // '['
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		return item.NewArray(nil), nil
	}
	var members []item.Item
	for {
		p.skipSpace()
		v, err := p.parseValue(depth + 1)
		if err != nil {
			return nil, err
		}
		members = append(members, v)
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, p.errorf("unterminated array")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return item.NewArray(members), nil
		default:
			return nil, p.errorf("expected ',' or ']' at offset %d", p.pos)
		}
	}
}

func (p *oracleParser) parseString() (string, error) {
	p.pos++ // opening quote
	start := p.pos
	// Fast path: scan for a quote with no escapes or control characters.
	for i := p.pos; i < len(p.data); i++ {
		c := p.data[i]
		if c == '"' {
			s := string(p.data[start:i])
			p.pos = i + 1
			return s, nil
		}
		if c == '\\' || c < 0x20 {
			return p.parseStringSlow(start, i)
		}
	}
	return "", p.errorf("unterminated string")
}

func (p *oracleParser) parseStringSlow(start, firstSpecial int) (string, error) {
	buf := make([]byte, 0, len(p.data)-start)
	buf = append(buf, p.data[start:firstSpecial]...)
	i := firstSpecial
	for i < len(p.data) {
		c := p.data[i]
		switch {
		case c == '"':
			p.pos = i + 1
			return string(buf), nil
		case c < 0x20:
			return "", p.errorf("raw control character 0x%02x in string", c)
		case c == '\\':
			i++
			if i >= len(p.data) {
				return "", p.errorf("unterminated escape")
			}
			switch e := p.data[i]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
				i++
			case 'n':
				buf = append(buf, '\n')
				i++
			case 't':
				buf = append(buf, '\t')
				i++
			case 'r':
				buf = append(buf, '\r')
				i++
			case 'b':
				buf = append(buf, '\b')
				i++
			case 'f':
				buf = append(buf, '\f')
				i++
			case 'u':
				r, n, err := p.parseUnicodeEscape(i - 1)
				if err != nil {
					return "", err
				}
				buf = utf8.AppendRune(buf, r)
				i += n
			default:
				return "", p.errorf("invalid escape \\%c", e)
			}
		default:
			buf = append(buf, c)
			i++
		}
	}
	return "", p.errorf("unterminated string")
}

// parseUnicodeEscape parses \uXXXX (and a following low surrogate if
// needed) starting at the backslash position. It returns the rune and the
// total number of bytes consumed starting at the 'u'.
func (p *oracleParser) parseUnicodeEscape(backslash int) (rune, int, error) {
	hex := func(at int) (rune, error) {
		if at+4 > len(p.data) {
			return 0, p.errorf("truncated \\u escape")
		}
		v, err := strconv.ParseUint(string(p.data[at:at+4]), 16, 32)
		if err != nil {
			return 0, p.errorf("invalid \\u escape")
		}
		return rune(v), nil
	}
	r, err := hex(backslash + 2)
	if err != nil {
		return 0, 0, err
	}
	if utf16.IsSurrogate(r) {
		lo := backslash + 6
		if lo+6 <= len(p.data) && p.data[lo] == '\\' && p.data[lo+1] == 'u' {
			r2, err := hex(lo + 2)
			if err != nil {
				return 0, 0, err
			}
			if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
				return dec, 11, nil
			}
		}
		return utf8.RuneError, 5, nil
	}
	return r, 5, nil
}

func (p *oracleParser) parseNumber() (item.Item, error) {
	start := p.pos
	i := p.pos
	if i < len(p.data) && p.data[i] == '-' {
		i++
	}
	digits := 0
	for i < len(p.data) && p.data[i] >= '0' && p.data[i] <= '9' {
		i++
		digits++
	}
	if digits == 0 {
		return nil, p.errorf("invalid number at offset %d", start)
	}
	hasFrac, hasExp := false, false
	if i < len(p.data) && p.data[i] == '.' {
		hasFrac = true
		i++
		fd := 0
		for i < len(p.data) && p.data[i] >= '0' && p.data[i] <= '9' {
			i++
			fd++
		}
		if fd == 0 {
			return nil, p.errorf("digits required after decimal point at offset %d", i)
		}
	}
	if i < len(p.data) && (p.data[i] == 'e' || p.data[i] == 'E') {
		hasExp = true
		i++
		if i < len(p.data) && (p.data[i] == '+' || p.data[i] == '-') {
			i++
		}
		ed := 0
		for i < len(p.data) && p.data[i] >= '0' && p.data[i] <= '9' {
			i++
			ed++
		}
		if ed == 0 {
			return nil, p.errorf("digits required in exponent at offset %d", i)
		}
	}
	text := string(p.data[start:i])
	p.pos = i
	switch {
	case hasExp:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, p.errorf("invalid double %q", text)
		}
		return item.Double(f), nil
	case hasFrac:
		d, err := item.DecimalFromString(text)
		if err != nil {
			return nil, p.errorf("invalid decimal %q", text)
		}
		return d, nil
	default:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			// Out-of-range integers widen to decimal rather than failing.
			d, derr := item.DecimalFromString(text)
			if derr != nil {
				return nil, p.errorf("invalid integer %q", text)
			}
			return d, nil
		}
		return item.Int(n), nil
	}
}
