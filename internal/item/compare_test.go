package item

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func mustCmp(t *testing.T, a, b Item) int {
	t.Helper()
	c, err := CompareValues(a, b)
	if err != nil {
		t.Fatalf("CompareValues(%v, %v): %v", a, b, err)
	}
	return c
}

func TestCompareNumericCrossType(t *testing.T) {
	dec := NewDecimal(big.NewRat(5, 2)) // 2.5
	cases := []struct {
		a, b Item
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Double(2.0), 0},
		{Int(2), Double(2.5), -1},
		{dec, Double(2.5), 0},
		{dec, Int(2), 1},
		{dec, Int(3), -1},
		{Double(-1), dec, -1},
	}
	for _, c := range cases {
		if got := mustCmp(t, c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareStringsBooleans(t *testing.T) {
	if mustCmp(t, Str("a"), Str("b")) != -1 || mustCmp(t, Str("b"), Str("b")) != 0 {
		t.Error("string comparison wrong")
	}
	if mustCmp(t, Bool(false), Bool(true)) != -1 || mustCmp(t, Bool(true), Bool(true)) != 0 {
		t.Error("boolean comparison wrong")
	}
}

func TestNullComparesLowerThanEverything(t *testing.T) {
	for _, other := range []Item{Int(-100), Double(-1e300), Str(""), Bool(false)} {
		if mustCmp(t, Null{}, other) != -1 {
			t.Errorf("null should compare lower than %v", other)
		}
		if mustCmp(t, other, Null{}) != 1 {
			t.Errorf("%v should compare higher than null", other)
		}
	}
	if mustCmp(t, Null{}, Null{}) != 0 {
		t.Error("null eq null should hold")
	}
}

func TestCompareIncompatibleTypesErrors(t *testing.T) {
	incompatible := [][2]Item{
		{Str("1"), Int(1)},
		{Bool(true), Int(1)},
		{Str("true"), Bool(true)},
		{NewArray(nil), Int(1)},
		{NewObject(nil, nil), NewObject(nil, nil)},
	}
	for _, p := range incompatible {
		if _, err := CompareValues(p[0], p[1]); !errors.Is(err, ErrNonComparable) {
			t.Errorf("CompareValues(%v, %v) err = %v, want ErrNonComparable", p[0], p[1], err)
		}
	}
}

func TestDeepEqual(t *testing.T) {
	a1 := NewArray([]Item{Int(1), NewObject([]string{"k"}, []Item{Str("v")})})
	a2 := NewArray([]Item{Int(1), NewObject([]string{"k"}, []Item{Str("v")})})
	if !DeepEqual(a1, a2) {
		t.Error("structurally equal arrays not DeepEqual")
	}
	a3 := NewArray([]Item{Int(1), NewObject([]string{"k"}, []Item{Str("w")})})
	if DeepEqual(a1, a3) {
		t.Error("different arrays DeepEqual")
	}
	if !DeepEqual(Int(2), Double(2.0)) {
		t.Error("cross-numeric DeepEqual should hold")
	}
	if DeepEqual(Str("1"), Int(1)) {
		t.Error("string vs number should not be DeepEqual")
	}
	o1 := NewObject([]string{"a", "b"}, []Item{Int(1), Int(2)})
	o2 := NewObject([]string{"b", "a"}, []Item{Int(2), Int(1)})
	if !DeepEqual(o1, o2) {
		t.Error("objects with same pairs in different order should be DeepEqual")
	}
}

func TestEncodeSortKeyTags(t *testing.T) {
	cases := []struct {
		seq []Item
		tag int
	}{
		{nil, TagEmptyLeast},
		{[]Item{Null{}}, TagNull},
		{[]Item{Bool(true)}, TagTrue},
		{[]Item{Bool(false)}, TagFalse},
		{[]Item{Str("x")}, TagString},
		{[]Item{Int(7)}, TagNumber},
		{[]Item{Double(7)}, TagNumber},
	}
	for _, c := range cases {
		k, err := EncodeSortKey(c.seq, false)
		if err != nil {
			t.Fatalf("EncodeSortKey(%v): %v", c.seq, err)
		}
		if k.Tag != c.tag {
			t.Errorf("EncodeSortKey(%v).Tag = %d, want %d", c.seq, k.Tag, c.tag)
		}
	}
	if k, _ := EncodeSortKey(nil, true); k.Tag != TagEmptyGreatest {
		t.Error("empty greatest tag not used")
	}
}

func TestEncodeSortKeyErrors(t *testing.T) {
	if _, err := EncodeSortKey([]Item{Int(1), Int(2)}, false); err == nil {
		t.Error("multi-item key should error")
	}
	if _, err := EncodeSortKey([]Item{NewArray(nil)}, false); err == nil {
		t.Error("array key should error")
	}
}

func TestSortKeyOrderMatchesPaperSemantics(t *testing.T) {
	// empty < null < false < true < strings < numbers; the boolean order
	// agrees with CompareValues (false < true).
	seqs := [][]Item{
		nil,
		{Null{}},
		{Bool(false)},
		{Bool(true)},
		{Str("a")},
		{Str("b")},
		{Int(1)},
		{Int(2)},
	}
	var prev SortKey
	for i, s := range seqs {
		k, err := EncodeSortKey(s, false)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && prev.Compare(k) != -1 {
			t.Errorf("key %d (%v) not strictly greater than predecessor", i, s)
		}
		prev = k
	}
}

// Property: SortKey.Compare is a total preorder consistent with
// CompareValues on homogeneous numeric keys.
func TestSortKeyCompareConsistentWithValueCompare(t *testing.T) {
	f := func(a, b float64) bool {
		ka, err1 := EncodeSortKey([]Item{Double(a)}, false)
		kb, err2 := EncodeSortKey([]Item{Double(b)}, false)
		if err1 != nil || err2 != nil {
			return false
		}
		c, err := CompareValues(Double(a), Double(b))
		if err != nil {
			return false
		}
		return ka.Compare(kb) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric: sign(cmp(a,b)) == -sign(cmp(b,a)).
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		ab := mustCompare(Int(a), Int(b))
		ba := mustCompare(Int(b), Int(a))
		return ab == -ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustCompare(a, b Item) int {
	c, err := CompareValues(a, b)
	if err != nil {
		panic(err)
	}
	return c
}

func TestEffectiveBoolean(t *testing.T) {
	cases := []struct {
		seq  []Item
		want bool
	}{
		{nil, false},
		{[]Item{Bool(true)}, true},
		{[]Item{Bool(false)}, false},
		{[]Item{Null{}}, false},
		{[]Item{Str("")}, false},
		{[]Item{Str("x")}, true},
		{[]Item{Int(0)}, false},
		{[]Item{Int(3)}, true},
		{[]Item{Double(0)}, false},
		{[]Item{NewArray(nil)}, true},
		{[]Item{NewObject(nil, nil)}, true},
		{[]Item{NewObject(nil, nil), Int(1)}, true},
	}
	for _, c := range cases {
		got, err := EffectiveBoolean(c.seq)
		if err != nil {
			t.Fatalf("EffectiveBoolean(%v): %v", c.seq, err)
		}
		if got != c.want {
			t.Errorf("EffectiveBoolean(%v) = %v, want %v", c.seq, got, c.want)
		}
	}
	if _, err := EffectiveBoolean([]Item{Int(1), Int(2)}); err == nil {
		t.Error("EBV of multi-atomic sequence should error")
	}
}

// sortKeyDomain is a cross-kind set of atomic items covering every tag,
// boundary integers around the float64-exact range, and NaN.
func sortKeyDomain() [][]Item {
	const maxExact = int64(1) << 53 // 9007199254740992
	return [][]Item{
		nil,
		{Null{}},
		{Bool(false)},
		{Bool(true)},
		{Str("")},
		{Str("NaN")}, // must not collide with the NaN number sentinel
		{Str("a")},
		{Str("b")},
		{Int(-maxExact - 1)},
		{Int(-3)},
		{Int(0)},
		{Int(2)},
		{Int(maxExact - 1)},
		{Int(maxExact)},
		{Int(maxExact + 1)},
		{Int(maxExact + 2)},
		{Int(1<<62 + 1)},
		{Double(math.Inf(-1))},
		{Double(-2.5)},
		{Double(-0.0)},
		{Double(0.0)},
		{Double(2.0)},
		{Double(2.5)},
		{Double(float64(maxExact))},
		{Double(1e300)},
		{Double(math.Inf(1))},
		{Double(math.NaN())},
		{NewDecimal(big.NewRat(5, 2))},
		{NewDecimal(new(big.Rat).SetInt64(maxExact + 1))},
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}

// Property (§4.7 correctness): for every pair of comparable atomic items,
// the SortKey ordering agrees with CompareValues. NaN pairs are excluded:
// CompareValues inherits IEEE unordered semantics while sort keys place
// NaN deterministically greatest among numbers (tested separately below).
func TestSortKeyAgreesWithCompareValues(t *testing.T) {
	domain := sortKeyDomain()
	isNaN := func(s []Item) bool {
		d, ok := s[0].(Double)
		return ok && math.IsNaN(float64(d))
	}
	for _, sa := range domain {
		for _, sb := range domain {
			if len(sa) == 0 || len(sb) == 0 || isNaN(sa) || isNaN(sb) {
				continue
			}
			cv, err := CompareValues(sa[0], sb[0])
			if err != nil {
				continue // non-comparable pair: no agreement required
			}
			ka, err := EncodeSortKey(sa, false)
			if err != nil {
				t.Fatal(err)
			}
			kb, err := EncodeSortKey(sb, false)
			if err != nil {
				t.Fatal(err)
			}
			if sign(ka.Compare(kb)) != sign(cv) {
				t.Errorf("SortKey order of (%v, %v) = %d disagrees with CompareValues = %d",
					sa[0], sb[0], ka.Compare(kb), cv)
			}
		}
	}
}

// Property: SortKey.Compare is a total order over the whole domain
// (antisymmetric and transitive), including NaN and the empty sequence.
func TestSortKeyTotalOrder(t *testing.T) {
	var keys []SortKey
	for _, s := range sortKeyDomain() {
		k, err := EncodeSortKey(s, false)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for _, a := range keys {
		for _, b := range keys {
			if sign(a.Compare(b)) != -sign(b.Compare(a)) {
				t.Errorf("not antisymmetric: %+v vs %+v", a, b)
			}
			for _, c := range keys {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("not transitive: %+v <= %+v <= %+v but a > c", a, b, c)
				}
			}
		}
	}
}

func TestSortKeyBooleanOrder(t *testing.T) {
	kf, _ := EncodeSortKey([]Item{Bool(false)}, false)
	kt, _ := EncodeSortKey([]Item{Bool(true)}, false)
	if kf.Compare(kt) != -1 {
		t.Error("false must sort before true, like CompareValues")
	}
	if cv, _ := CompareValues(Bool(false), Bool(true)); cv != -1 {
		t.Error("CompareValues(false, true) should be -1")
	}
}

func TestSortKeyNaNGreatestAndSelfEqual(t *testing.T) {
	nan, _ := EncodeSortKey([]Item{Double(math.NaN())}, false)
	nan2, _ := EncodeSortKey([]Item{Double(math.NaN())}, false)
	if nan.Compare(nan2) != 0 {
		t.Error("NaN key must equal itself (stable group-by bucket)")
	}
	for _, other := range []Item{Int(0), Double(math.Inf(1)), Double(-1e300), Int(1 << 62)} {
		k, err := EncodeSortKey([]Item{other}, false)
		if err != nil {
			t.Fatal(err)
		}
		if nan.Compare(k) != 1 || k.Compare(nan) != -1 {
			t.Errorf("NaN must order greater than %v", other)
		}
	}
	// NaN stays below non-number tags and is distinct from the string "NaN".
	s, _ := EncodeSortKey([]Item{Str("NaN")}, false)
	if nan.Compare(s) == 0 {
		t.Error("number NaN collides with string \"NaN\"")
	}
	// Raw hand-built NaN keys (no sentinel) still order deterministically.
	raw := SortKey{Tag: TagNumber, Num: math.NaN()}
	five := SortKey{Tag: TagNumber, Num: 5}
	if raw.Compare(five) != 1 || five.Compare(raw) != -1 || raw.Compare(raw) != 0 {
		t.Error("raw NaN keys must order greatest deterministically")
	}
}

func TestSortKeyLargeIntegersExact(t *testing.T) {
	const maxExact = int64(1) << 53
	a, _ := EncodeSortKey([]Item{Int(maxExact)}, false)
	b, _ := EncodeSortKey([]Item{Int(maxExact + 1)}, false)
	if a.Compare(b) != -1 {
		t.Errorf("Int(2^53) vs Int(2^53+1): Compare = %d, want -1", a.Compare(b))
	}
	if string(AppendSortKey(nil, a)) == string(AppendSortKey(nil, b)) {
		t.Error("Int(2^53) and Int(2^53+1) encode to the same bucket key")
	}
	// A double that is mathematically equal still lands in the same bucket.
	d, _ := EncodeSortKey([]Item{Double(float64(maxExact))}, false)
	if a.Compare(d) != 0 || string(AppendSortKey(nil, a)) != string(AppendSortKey(nil, d)) {
		t.Error("Int(2^53) and Double(2^53) must share a bucket")
	}
}

func TestAppendSortKeyCanonical(t *testing.T) {
	// Encodings are equal exactly when Compare says equal, across the domain.
	domain := sortKeyDomain()
	for _, sa := range domain {
		for _, sb := range domain {
			ka, _ := EncodeSortKey(sa, false)
			kb, _ := EncodeSortKey(sb, false)
			sameBytes := string(AppendSortKey(nil, ka)) == string(AppendSortKey(nil, kb))
			if sameBytes != (ka.Compare(kb) == 0) {
				t.Errorf("byte encoding of %v vs %v: sameBytes=%v but Compare=%d",
					sa, sb, sameBytes, ka.Compare(kb))
			}
		}
	}
	// -0.0 and +0.0 must share one canonical encoding.
	kn, _ := EncodeSortKey([]Item{Double(math.Copysign(0, -1))}, false)
	kp, _ := EncodeSortKey([]Item{Double(0)}, false)
	if string(AppendSortKey(nil, kn)) != string(AppendSortKey(nil, kp)) {
		t.Error("-0.0 and +0.0 encode differently")
	}
}

func TestCompareNumericExactAtFloatBoundary(t *testing.T) {
	const maxExact = int64(1) << 53
	// Mixed int/double comparisons are mathematically exact now.
	if c := mustCompare(Int(maxExact+1), Double(float64(maxExact))); c != 1 {
		t.Errorf("Int(2^53+1) vs Double(2^53) = %d, want 1", c)
	}
	if c := mustCompare(Int(maxExact), Double(float64(maxExact))); c != 0 {
		t.Errorf("Int(2^53) vs Double(2^53) = %d, want 0", c)
	}
	// Infinities still compare correctly against integers.
	if c := mustCompare(Int(1<<62), Double(math.Inf(1))); c != -1 {
		t.Error("int must compare below +Inf")
	}
	if c := mustCompare(Int(1<<62), Double(math.Inf(-1))); c != 1 {
		t.Error("int must compare above -Inf")
	}
}

func TestSortKeyNonIntegerDecimalDoesNotEqualInteger(t *testing.T) {
	// Dec(2^53 + 1/2) rounds to the float 2^53; it must not land in the
	// same join/group bucket as the genuinely equal-to-float Int(2^53).
	const maxExact = int64(1) << 53
	half := new(big.Rat).Add(new(big.Rat).SetInt64(maxExact), big.NewRat(1, 2))
	kd, err := EncodeSortKey([]Item{NewDecimal(half)}, false)
	if err != nil {
		t.Fatal(err)
	}
	ki, _ := EncodeSortKey([]Item{Int(maxExact)}, false)
	if kd.Compare(ki) == 0 {
		t.Error("Dec(2^53+1/2) compares equal to Int(2^53)")
	}
	if string(AppendSortKey(nil, kd)) == string(AppendSortKey(nil, ki)) {
		t.Error("Dec(2^53+1/2) shares a bucket key with Int(2^53)")
	}
	// CompareValues agrees they differ (exact big.Rat comparison).
	if c := mustCompare(NewDecimal(half), Int(maxExact)); c == 0 {
		t.Error("CompareValues thinks the values are equal")
	}
}
