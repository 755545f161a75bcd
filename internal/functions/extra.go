package functions

import (
	"encoding/base64"
	"encoding/hex"
	"math"
	"strings"

	"rumble/internal/item"
)

// Additional W3C-library functions: codepoint conversions, padding and
// trimming, binary encodings, math functions, and sequence set operations.
func init() {
	registerCodepointFunctions()
	registerPaddingFunctions()
	registerEncodingFunctions()
	registerMathFunctions()
	registerSetFunctions()
}

func registerCodepointFunctions() {
	register("string-to-codepoints", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "string-to-codepoints")
		if err != nil {
			return nil, err
		}
		var out []item.Item
		for _, r := range s {
			out = append(out, item.Int(int64(r)))
		}
		return out, nil
	})
	register("codepoints-to-string", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		var b strings.Builder
		for _, it := range args[0] {
			n, err := item.CastToInteger(it)
			if err != nil {
				return nil, errf("codepoints-to-string: %v", err)
			}
			cp := int64(n.(item.Int))
			if cp < 0 || cp > 0x10FFFF {
				return nil, errf("codepoints-to-string: %d out of range", cp)
			}
			b.WriteRune(rune(cp))
		}
		return singleton(item.Str(b.String())), nil
	})
	register("translate", 3, 3, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "translate")
		if err != nil {
			return nil, err
		}
		from, err := oneString(args, 1, "translate")
		if err != nil {
			return nil, err
		}
		to, err := oneString(args, 2, "translate")
		if err != nil {
			return nil, err
		}
		fromRunes, toRunes := []rune(from), []rune(to)
		mapping := make(map[rune]rune, len(fromRunes))
		drop := make(map[rune]bool)
		for i, r := range fromRunes {
			if _, seen := mapping[r]; seen || drop[r] {
				continue
			}
			if i < len(toRunes) {
				mapping[r] = toRunes[i]
			} else {
				drop[r] = true
			}
		}
		var b strings.Builder
		for _, r := range s {
			if drop[r] {
				continue
			}
			if m, ok := mapping[r]; ok {
				b.WriteRune(m)
				continue
			}
			b.WriteRune(r)
		}
		return singleton(item.Str(b.String())), nil
	})
}

func registerPaddingFunctions() {
	register("trim", 1, 1, stringMap(strings.TrimSpace))
	register("pad-left", 2, 3, padFunc(true))
	register("pad-right", 2, 3, padFunc(false))
	register("repeat-string", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "repeat-string")
		if err != nil {
			return nil, err
		}
		n, err := oneInt(args, 1, "repeat-string")
		if err != nil {
			return nil, err
		}
		if n < 0 {
			n = 0
		}
		if int64(len(s))*n > 1<<26 {
			return nil, errf("repeat-string: result too large")
		}
		return singleton(item.Str(strings.Repeat(s, int(n)))), nil
	})
}

func padFunc(left bool) func(args [][]item.Item) ([]item.Item, error) {
	return func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "pad")
		if err != nil {
			return nil, err
		}
		width, err := oneInt(args, 1, "pad")
		if err != nil {
			return nil, err
		}
		fill := " "
		if len(args) == 3 {
			fill, err = oneString(args, 2, "pad")
			if err != nil {
				return nil, err
			}
			if fill == "" {
				return nil, errf("pad: empty fill string")
			}
		}
		runes := []rune(s)
		if int64(len(runes)) >= width {
			return singleton(item.Str(s)), nil
		}
		need := int(width) - len(runes)
		pad := strings.Repeat(fill, need/len([]rune(fill))+1)
		pad = string([]rune(pad)[:need])
		if left {
			return singleton(item.Str(pad + s)), nil
		}
		return singleton(item.Str(s + pad)), nil
	}
}

func registerEncodingFunctions() {
	register("hex-encode", 1, 1, stringMap(func(s string) string {
		return hex.EncodeToString([]byte(s))
	}))
	register("hex-decode", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "hex-decode")
		if err != nil {
			return nil, err
		}
		raw, err := hex.DecodeString(s)
		if err != nil {
			return nil, errf("hex-decode: %v", err)
		}
		return singleton(item.Str(string(raw))), nil
	})
	register("base64-encode", 1, 1, stringMap(func(s string) string {
		return base64.StdEncoding.EncodeToString([]byte(s))
	}))
	register("base64-decode", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "base64-decode")
		if err != nil {
			return nil, err
		}
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, errf("base64-decode: %v", err)
		}
		return singleton(item.Str(string(raw))), nil
	})
}

func registerMathFunctions() {
	unary := func(name string, f func(float64) float64) {
		register(name, 1, 1, func(args [][]item.Item) ([]item.Item, error) {
			if len(args[0]) == 0 {
				return nil, nil
			}
			v, err := oneDouble(args, 0, name)
			if err != nil {
				return nil, err
			}
			return singleton(item.Double(f(v))), nil
		})
	}
	unary("exp", math.Exp)
	unary("log", math.Log)
	unary("log10", math.Log10)
	unary("sin", math.Sin)
	unary("cos", math.Cos)
	unary("tan", math.Tan)
	unary("atan", math.Atan)
	register("pi", 0, 0, func([][]item.Item) ([]item.Item, error) {
		return singleton(item.Double(math.Pi)), nil
	})
	register("round-half-to-even", 1, 2, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		v, err := oneDouble(args, 0, "round-half-to-even")
		if err != nil {
			return nil, err
		}
		precision := int64(0)
		if len(args) == 2 {
			precision, err = oneInt(args, 1, "round-half-to-even")
			if err != nil {
				return nil, err
			}
		}
		scale := math.Pow(10, float64(precision))
		r := math.RoundToEven(v*scale) / scale
		if args[0][0].Kind() == item.KindInteger && precision >= 0 {
			return singleton(item.Int(int64(r))), nil
		}
		return singleton(item.Double(r)), nil
	})
}

func registerSetFunctions() {
	register("intersect", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		inB := make(map[string]bool, len(args[1]))
		for _, it := range args[1] {
			inB[DistinctKey(it)] = true
		}
		var out []item.Item
		seen := map[string]bool{}
		for _, it := range args[0] {
			k := DistinctKey(it)
			if inB[k] && !seen[k] {
				seen[k] = true
				out = append(out, it)
			}
		}
		return out, nil
	})
	register("except", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		inB := make(map[string]bool, len(args[1]))
		for _, it := range args[1] {
			inB[DistinctKey(it)] = true
		}
		var out []item.Item
		seen := map[string]bool{}
		for _, it := range args[0] {
			k := DistinctKey(it)
			if !inB[k] && !seen[k] {
				seen[k] = true
				out = append(out, it)
			}
		}
		return out, nil
	})
	register("union-values", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		return DistinctValues(append(append([]item.Item{}, args[0]...), args[1]...)), nil
	})
}
