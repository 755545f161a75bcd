// Package functions implements the JSONiq builtin function library over
// materialized argument sequences. Aggregations (count, sum, ...) also live
// here, with the one accumulator every backend folds them through
// (fold.go): the runtime pushes them down to Spark actions when their
// argument is physically an RDD.
package functions

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"rumble/internal/item"
	"rumble/internal/jparse"
	"rumble/internal/keytab"
)

// Func is one builtin: an arity range and the local implementation over
// materialized argument sequences.
type Func struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 means variadic
	Call    func(args [][]item.Item) ([]item.Item, error)
}

// Lookup returns the builtin with the given name.
func Lookup(name string) (Func, bool) {
	f, ok := registry[name]
	return f, ok
}

// Names returns all builtin names (for diagnostics and docs).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	return out
}

var registry = map[string]Func{}

func register(name string, minArgs, maxArgs int, call func(args [][]item.Item) ([]item.Item, error)) {
	registry[name] = Func{Name: name, MinArgs: minArgs, MaxArgs: maxArgs, Call: call}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// one extracts a required single atomic argument.
func one(args [][]item.Item, i int, fn string) (item.Item, error) {
	if len(args[i]) != 1 {
		return nil, errf("%s: argument %d must be a single item, got %d", fn, i+1, len(args[i]))
	}
	return args[i][0], nil
}

// oneString extracts a required single string argument; the empty sequence
// is treated as the empty string (XPath convention).
func oneString(args [][]item.Item, i int, fn string) (string, error) {
	if len(args[i]) == 0 {
		return "", nil
	}
	it, err := one(args, i, fn)
	if err != nil {
		return "", err
	}
	s, err := item.StringValue(it)
	if err != nil {
		return "", errf("%s: %v", fn, err)
	}
	return s, nil
}

func oneInt(args [][]item.Item, i int, fn string) (int64, error) {
	it, err := one(args, i, fn)
	if err != nil {
		return 0, err
	}
	n, err := item.CastToInteger(it)
	if err != nil {
		return 0, errf("%s: %v", fn, err)
	}
	return int64(n.(item.Int)), nil
}

func oneDouble(args [][]item.Item, i int, fn string) (float64, error) {
	it, err := one(args, i, fn)
	if err != nil {
		return 0, err
	}
	if !item.IsNumeric(it) {
		return 0, errf("%s: argument %d must be numeric, got %s", fn, i+1, it.Kind())
	}
	return item.Float64Value(it), nil
}

func singleton(it item.Item) []item.Item { return []item.Item{it} }

func init() {
	registerSequenceFunctions()
	registerAggregateFunctions()
	registerStringFunctions()
	registerNumericFunctions()
	registerObjectArrayFunctions()
	registerJSONFunctions()
	registerLogicFunctions()
}

func registerSequenceFunctions() {
	register("empty", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		return singleton(item.Bool(len(args[0]) == 0)), nil
	})
	register("exists", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		return singleton(item.Bool(len(args[0]) > 0)), nil
	})
	register("head", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		return args[0][:1], nil
	})
	register("tail", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) <= 1 {
			return nil, nil
		}
		return args[0][1:], nil
	})
	register("reverse", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		in := args[0]
		out := make([]item.Item, len(in))
		for i, it := range in {
			out[len(in)-1-i] = it
		}
		return out, nil
	})
	register("subsequence", 2, 3, func(args [][]item.Item) ([]item.Item, error) {
		seq := args[0]
		start, err := oneDouble(args, 1, "subsequence")
		if err != nil {
			return nil, err
		}
		length := math.Inf(1)
		if len(args) == 3 {
			length, err = oneDouble(args, 2, "subsequence")
			if err != nil {
				return nil, err
			}
		}
		var out []item.Item
		for i, it := range seq {
			pos := float64(i + 1)
			if pos >= math.Round(start) && pos < math.Round(start)+math.Round(length) {
				out = append(out, it)
			}
		}
		return out, nil
	})
	register("insert-before", 3, 3, func(args [][]item.Item) ([]item.Item, error) {
		seq, ins := args[0], args[2]
		pos, err := oneInt(args, 1, "insert-before")
		if err != nil {
			return nil, err
		}
		if pos < 1 {
			pos = 1
		}
		if pos > int64(len(seq))+1 {
			pos = int64(len(seq)) + 1
		}
		out := make([]item.Item, 0, len(seq)+len(ins))
		out = append(out, seq[:pos-1]...)
		out = append(out, ins...)
		out = append(out, seq[pos-1:]...)
		return out, nil
	})
	register("remove", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		seq := args[0]
		pos, err := oneInt(args, 1, "remove")
		if err != nil {
			return nil, err
		}
		if pos < 1 || pos > int64(len(seq)) {
			return seq, nil
		}
		out := make([]item.Item, 0, len(seq)-1)
		out = append(out, seq[:pos-1]...)
		out = append(out, seq[pos:]...)
		return out, nil
	})
	register("distinct-values", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		return DistinctValues(args[0]), nil
	})
	register("index-of", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		needle, err := one(args, 1, "index-of")
		if err != nil {
			return nil, err
		}
		var out []item.Item
		for i, it := range args[0] {
			if c, err := item.CompareValues(it, needle); err == nil && c == 0 {
				out = append(out, item.Int(int64(i+1)))
			}
		}
		return out, nil
	})
	register("exactly-one", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) != 1 {
			return nil, errf("exactly-one: sequence has %d items", len(args[0]))
		}
		return args[0], nil
	})
	register("zero-or-one", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) > 1 {
			return nil, errf("zero-or-one: sequence has %d items", len(args[0]))
		}
		return args[0], nil
	})
	register("one-or-more", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) == 0 {
			return nil, errf("one-or-more: sequence is empty")
		}
		return args[0], nil
	})
}

// DistinctValues returns the first occurrence of each distinct value in
// sequence order, each value keyed by DistinctKey.
func DistinctValues(seq []item.Item) []item.Item {
	seen := keytab.New(len(seq))
	var out []item.Item
	for _, it := range seq {
		if _, fresh := seen.ID(DistinctKey(it)); fresh {
			out = append(out, it)
		}
	}
	return out
}

// DistinctKey tells values apart for distinct-values on every path: atomics
// by their sort-key bytes, equal exactly when eq holds (and for NaN and
// NaN), other items by their kind and JSON.
func DistinctKey(it item.Item) string {
	one := [1]item.Item{it}
	if sk, err := item.EncodeSortKey(one[:], false); err == nil {
		return string(item.AppendSortKey(nil, sk))
	}
	return string(it.AppendJSON([]byte{it.Kind().String()[0], ':'}))
}

func registerAggregateFunctions() {
	register("count", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		return singleton(item.Int(int64(len(args[0])))), nil
	})
	register("sum", 1, 2, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) == 0 && len(args) == 2 {
			return args[1], nil
		}
		return foldAll(AggSum, args[0])
	})
	register("avg", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		return foldAll(AggAvg, args[0])
	})
	register("min", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		return foldAll(AggMin, args[0])
	})
	register("max", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		return foldAll(AggMax, args[0])
	})
}

func registerStringFunctions() {
	register("string", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) == 0 {
			return singleton(item.Str("")), nil
		}
		it, err := one(args, 0, "string")
		if err != nil {
			return nil, err
		}
		s, err := item.StringValue(it)
		if err != nil {
			return nil, err
		}
		return singleton(item.Str(s)), nil
	})
	register("string-length", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "string-length")
		if err != nil {
			return nil, err
		}
		return singleton(item.Int(int64(len([]rune(s))))), nil
	})
	register("concat", 2, -1, func(args [][]item.Item) ([]item.Item, error) {
		var b strings.Builder
		for i := range args {
			s, err := oneString(args, i, "concat")
			if err != nil {
				return nil, err
			}
			b.WriteString(s)
		}
		return singleton(item.Str(b.String())), nil
	})
	register("string-join", 1, 2, func(args [][]item.Item) ([]item.Item, error) {
		sep := ""
		if len(args) == 2 {
			var err error
			sep, err = oneString(args, 1, "string-join")
			if err != nil {
				return nil, err
			}
		}
		parts := make([]string, len(args[0]))
		for i, it := range args[0] {
			s, err := item.StringValue(it)
			if err != nil {
				return nil, errf("string-join: %v", err)
			}
			parts[i] = s
		}
		return singleton(item.Str(strings.Join(parts, sep))), nil
	})
	register("substring", 2, 3, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "substring")
		if err != nil {
			return nil, err
		}
		runes := []rune(s)
		start, err := oneDouble(args, 1, "substring")
		if err != nil {
			return nil, err
		}
		length := math.Inf(1)
		if len(args) == 3 {
			length, err = oneDouble(args, 2, "substring")
			if err != nil {
				return nil, err
			}
		}
		var b strings.Builder
		for i, r := range runes {
			pos := float64(i + 1)
			if pos >= math.Round(start) && pos < math.Round(start)+math.Round(length) {
				b.WriteRune(r)
			}
		}
		return singleton(item.Str(b.String())), nil
	})
	register("upper-case", 1, 1, stringMap(strings.ToUpper))
	register("lower-case", 1, 1, stringMap(strings.ToLower))
	register("normalize-space", 1, 1, stringMap(func(s string) string {
		return strings.Join(strings.Fields(s), " ")
	}))
	register("contains", 2, 2, stringPred("contains", strings.Contains))
	register("starts-with", 2, 2, stringPred("starts-with", strings.HasPrefix))
	register("ends-with", 2, 2, stringPred("ends-with", strings.HasSuffix))
	register("substring-before", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "substring-before")
		if err != nil {
			return nil, err
		}
		sub, err := oneString(args, 1, "substring-before")
		if err != nil {
			return nil, err
		}
		if i := strings.Index(s, sub); i >= 0 {
			return singleton(item.Str(s[:i])), nil
		}
		return singleton(item.Str("")), nil
	})
	register("substring-after", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "substring-after")
		if err != nil {
			return nil, err
		}
		sub, err := oneString(args, 1, "substring-after")
		if err != nil {
			return nil, err
		}
		if i := strings.Index(s, sub); i >= 0 {
			return singleton(item.Str(s[i+len(sub):])), nil
		}
		return singleton(item.Str("")), nil
	})
	register("tokenize", 1, 2, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "tokenize")
		if err != nil {
			return nil, err
		}
		var parts []string
		if len(args) == 1 {
			parts = strings.Fields(s)
		} else {
			pat, err := oneString(args, 1, "tokenize")
			if err != nil {
				return nil, err
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, errf("tokenize: invalid pattern: %v", err)
			}
			parts = re.Split(s, -1)
		}
		out := make([]item.Item, len(parts))
		for i, p := range parts {
			out[i] = item.Str(p)
		}
		return out, nil
	})
	register("matches", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "matches")
		if err != nil {
			return nil, err
		}
		pat, err := oneString(args, 1, "matches")
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, errf("matches: invalid pattern: %v", err)
		}
		return singleton(item.Bool(re.MatchString(s))), nil
	})
	register("replace", 3, 3, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "replace")
		if err != nil {
			return nil, err
		}
		pat, err := oneString(args, 1, "replace")
		if err != nil {
			return nil, err
		}
		repl, err := oneString(args, 2, "replace")
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, errf("replace: invalid pattern: %v", err)
		}
		return singleton(item.Str(re.ReplaceAllString(s, repl))), nil
	})
}

func stringMap(f func(string) string) func(args [][]item.Item) ([]item.Item, error) {
	return func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "string function")
		if err != nil {
			return nil, err
		}
		return singleton(item.Str(f(s))), nil
	}
}

func stringPred(name string, f func(a, b string) bool) func(args [][]item.Item) ([]item.Item, error) {
	return func(args [][]item.Item) ([]item.Item, error) {
		a, err := oneString(args, 0, name)
		if err != nil {
			return nil, err
		}
		b, err := oneString(args, 1, name)
		if err != nil {
			return nil, err
		}
		return singleton(item.Bool(f(a, b))), nil
	}
}

func registerNumericFunctions() {
	register("abs", 1, 1, doubleMapPreserving(math.Abs))
	register("floor", 1, 1, doubleMapPreserving(math.Floor))
	register("ceiling", 1, 1, doubleMapPreserving(math.Ceil))
	register("round", 1, 1, doubleMapPreserving(math.Round))
	register("sqrt", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		f, err := oneDouble(args, 0, "sqrt")
		if err != nil {
			return nil, err
		}
		return singleton(item.Double(math.Sqrt(f))), nil
	})
	register("pow", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		base, err := oneDouble(args, 0, "pow")
		if err != nil {
			return nil, err
		}
		exp, err := oneDouble(args, 1, "pow")
		if err != nil {
			return nil, err
		}
		return singleton(item.Double(math.Pow(base, exp))), nil
	})
	register("number", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) == 0 {
			return singleton(item.Double(math.NaN())), nil
		}
		it, err := one(args, 0, "number")
		if err != nil {
			return nil, err
		}
		d, err := item.CastToDouble(it)
		if err != nil {
			return singleton(item.Double(math.NaN())), nil
		}
		return singleton(d), nil
	})
}

// doubleMapPreserving applies f to a numeric item, preserving integer-ness
// where the result is integral.
func doubleMapPreserving(f func(float64) float64) func(args [][]item.Item) ([]item.Item, error) {
	return func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		it, err := one(args, 0, "numeric function")
		if err != nil {
			return nil, err
		}
		if !item.IsNumeric(it) {
			return nil, errf("numeric function requires a number, got %s", it.Kind())
		}
		v := f(item.Float64Value(it))
		if it.Kind() == item.KindInteger && v == math.Trunc(v) {
			return singleton(item.Int(int64(v))), nil
		}
		if it.Kind() == item.KindDouble {
			return singleton(item.Double(v)), nil
		}
		// decimal input: stay decimal when integral, else double
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			return singleton(item.Int(int64(v))), nil
		}
		return singleton(item.Double(v)), nil
	}
}

func registerObjectArrayFunctions() {
	register("keys", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		var out []item.Item
		seen := map[string]bool{}
		for _, it := range args[0] {
			if obj, ok := it.(*item.Object); ok {
				for _, k := range obj.Keys() {
					if !seen[k] {
						seen[k] = true
						out = append(out, item.Str(k))
					}
				}
			}
		}
		return out, nil
	})
	register("values", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		var out []item.Item
		for _, it := range args[0] {
			if obj, ok := it.(*item.Object); ok {
				for i := 0; i < obj.Len(); i++ {
					out = append(out, obj.ValueAt(i))
				}
			}
		}
		return out, nil
	})
	register("members", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		var out []item.Item
		for _, it := range args[0] {
			if arr, ok := it.(*item.Array); ok {
				out = append(out, arr.Members()...)
			}
		}
		return out, nil
	})
	register("size", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		it, err := one(args, 0, "size")
		if err != nil {
			return nil, err
		}
		arr, ok := it.(*item.Array)
		if !ok {
			return nil, errf("size: argument must be an array, got %s", it.Kind())
		}
		return singleton(item.Int(int64(arr.Len()))), nil
	})
	register("flatten", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		var out []item.Item
		var walk func(it item.Item)
		walk = func(it item.Item) {
			if arr, ok := it.(*item.Array); ok {
				for _, m := range arr.Members() {
					walk(m)
				}
				return
			}
			out = append(out, it)
		}
		for _, it := range args[0] {
			walk(it)
		}
		return out, nil
	})
	register("project", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		keep := map[string]bool{}
		for _, k := range args[1] {
			s, err := item.StringValue(k)
			if err != nil {
				return nil, errf("project: %v", err)
			}
			keep[s] = true
		}
		var out []item.Item
		for _, it := range args[0] {
			obj, ok := it.(*item.Object)
			if !ok {
				out = append(out, it)
				continue
			}
			var keys []string
			var vals []item.Item
			for i, k := range obj.Keys() {
				if keep[k] {
					keys = append(keys, k)
					vals = append(vals, obj.ValueAt(i))
				}
			}
			out = append(out, item.NewObject(keys, vals))
		}
		return out, nil
	})
	register("remove-keys", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		drop := map[string]bool{}
		for _, k := range args[1] {
			s, err := item.StringValue(k)
			if err != nil {
				return nil, errf("remove-keys: %v", err)
			}
			drop[s] = true
		}
		var out []item.Item
		for _, it := range args[0] {
			obj, ok := it.(*item.Object)
			if !ok {
				out = append(out, it)
				continue
			}
			var keys []string
			var vals []item.Item
			for i, k := range obj.Keys() {
				if !drop[k] {
					keys = append(keys, k)
					vals = append(vals, obj.ValueAt(i))
				}
			}
			out = append(out, item.NewObject(keys, vals))
		}
		return out, nil
	})
	register("object-merge", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		var keys []string
		var vals []item.Item
		seen := map[string]bool{}
		for _, it := range args[0] {
			obj, ok := it.(*item.Object)
			if !ok {
				return nil, errf("object-merge: all items must be objects, got %s", it.Kind())
			}
			for i, k := range obj.Keys() {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
					vals = append(vals, obj.ValueAt(i))
				}
			}
		}
		return singleton(item.NewObject(keys, vals)), nil
	})
}

func registerJSONFunctions() {
	register("json-doc", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "json-doc")
		if err != nil {
			return nil, err
		}
		it, err := jparse.Parse([]byte(s))
		if err != nil {
			return nil, errf("json-doc: %v", err)
		}
		return singleton(it), nil
	})
	register("parse-json", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		s, err := oneString(args, 0, "parse-json")
		if err != nil {
			return nil, err
		}
		it, err := jparse.Parse([]byte(s))
		if err != nil {
			return nil, errf("parse-json: %v", err)
		}
		return singleton(it), nil
	})
	register("serialize", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		it, err := one(args, 0, "serialize")
		if err != nil {
			return nil, err
		}
		return singleton(item.Str(string(it.AppendJSON(nil)))), nil
	})
}

func registerLogicFunctions() {
	register("boolean", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		b, err := item.EffectiveBoolean(args[0])
		if err != nil {
			return nil, err
		}
		return singleton(item.Bool(b)), nil
	})
	register("not", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		b, err := item.EffectiveBoolean(args[0])
		if err != nil {
			return nil, err
		}
		return singleton(item.Bool(!b)), nil
	})
	register("error", 0, 2, func(args [][]item.Item) ([]item.Item, error) {
		msg := "error() called"
		if len(args) >= 1 && len(args[0]) > 0 {
			if s, err := item.StringValue(args[0][0]); err == nil {
				msg = s
			}
		}
		return nil, errf("%s", msg)
	})
	register("null", 0, 0, func(args [][]item.Item) ([]item.Item, error) {
		return singleton(item.Null{}), nil
	})
	register("is-null", 1, 1, func(args [][]item.Item) ([]item.Item, error) {
		it, err := one(args, 0, "is-null")
		if err != nil {
			return nil, err
		}
		return singleton(item.Bool(it.Kind() == item.KindNull)), nil
	})
	register("deep-equal", 2, 2, func(args [][]item.Item) ([]item.Item, error) {
		if len(args[0]) != len(args[1]) {
			return singleton(item.Bool(false)), nil
		}
		for i := range args[0] {
			if !item.DeepEqual(args[0][i], args[1][i]) {
				return singleton(item.Bool(false)), nil
			}
		}
		return singleton(item.Bool(true)), nil
	})
}
