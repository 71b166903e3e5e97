package labelseq

import (
	"math/rand"
	"testing"
)

func TestCoderRoundTrip(t *testing.T) {
	coder, err := NewCoder(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		s := make(Seq, r.Intn(5))
		for j := range s {
			s[j] = Label(r.Intn(5))
		}
		code := coder.Encode(s)
		if got := coder.Decode(code, len(s)); !got.Equal(s) {
			t.Fatalf("Decode(Encode(%v)) = %v", s, got)
		}
	}
}

func TestCoderAppendPrepend(t *testing.T) {
	coder, err := NewCoder(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := Seq{1, 3, 0, 2}
	code := coder.Encode(s)
	if got := coder.Append(code, 2); got != coder.Encode(append(s.Clone(), 2)) {
		t.Errorf("Append mismatch: %d", got)
	}
	if got := coder.Prepend(code, 3, len(s)); got != coder.Encode(Seq{3}.Concat(s)) {
		t.Errorf("Prepend mismatch: %d", got)
	}
	// Incremental prepends from the empty sequence must match batch encoding.
	var inc Code
	var cur Seq
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		l := Label(r.Intn(4))
		inc = coder.Prepend(inc, l, len(cur))
		cur = Seq{l}.Concat(cur)
		if inc != coder.Encode(cur) {
			t.Fatalf("incremental prepend diverged at step %d", i)
		}
	}
}

func TestCoderUniqueAcrossLengths(t *testing.T) {
	coder, err := NewCoder(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Code]Seq)
	var all []Seq
	var gen func(prefix Seq)
	gen = func(prefix Seq) {
		all = append(all, prefix.Clone())
		if len(prefix) == 3 {
			return
		}
		for l := Label(0); l < 3; l++ {
			gen(append(prefix, l))
		}
	}
	gen(Seq{})
	for _, s := range all {
		code := coder.Encode(s)
		if prev, ok := seen[code]; ok {
			t.Fatalf("code collision: %v and %v both encode to %d", prev, s, code)
		}
		seen[code] = s
	}
}

func TestCoderOverflowRejected(t *testing.T) {
	if _, err := NewCoder(1000, 10); err == nil {
		t.Error("expected overflow error for huge code space")
	}
	if _, err := NewCoder(0, 2); err == nil {
		t.Error("expected error for zero labels")
	}
	if _, err := NewCoder(3, 0); err == nil {
		t.Error("expected error for zero max length")
	}
}

func TestCoderPanicsOnBadInput(t *testing.T) {
	coder, err := NewCoder(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "label out of range", func() { coder.Encode(Seq{5}) })
	mustPanic(t, "negative label", func() { coder.Append(0, -1) })
	mustPanic(t, "too long", func() { coder.Encode(Seq{0, 1, 0}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestDictIntern(t *testing.T) {
	d, err := NewDict(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := d.Intern(Seq{0, 1})
	b := d.Intern(Seq{1, 0})
	if a == b {
		t.Error("distinct sequences must get distinct ids")
	}
	if again := d.Intern(Seq{0, 1}); again != a {
		t.Errorf("re-interning returned %d, want %d", again, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if !d.Seq(a).Equal(Seq{0, 1}) {
		t.Errorf("Seq(%d) = %v", a, d.Seq(a))
	}
	if d.Lookup(Seq{3}) != InvalidID {
		t.Error("Lookup of missing sequence should be InvalidID")
	}
	if d.Lookup(Seq{1, 0}) != b {
		t.Error("Lookup(1,0) mismatch")
	}
	if d.Code(a) != d.Coder().Encode(Seq{0, 1}) {
		t.Error("Code(a) mismatch")
	}
	if d.LookupCode(d.Coder().Encode(Seq{1, 0})) != b {
		t.Error("LookupCode mismatch")
	}
	if d.LookupCode(12345) != InvalidID {
		t.Error("LookupCode of unknown code should be InvalidID")
	}
}

// TestDictInternClones guards against aliasing bugs: mutating the caller's
// slice after interning must not corrupt the dictionary.
func TestDictInternClones(t *testing.T) {
	d, err := NewDict(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := Seq{2, 3}
	id := d.Intern(s)
	s[0] = 0
	if !d.Seq(id).Equal(Seq{2, 3}) {
		t.Error("dictionary aliased the caller's slice")
	}
}
