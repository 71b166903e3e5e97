package labelseq

import (
	"fmt"
	"strings"
)

// Label identifies an edge label. Labels are small dense integers assigned by
// the graph loader (0-based). The sentinel NoLabel marks an absent label.
type Label int32

// NoLabel is the sentinel value for an absent label.
const NoLabel Label = -1

// Seq is a sequence of edge labels, read in path order (first traversed edge
// first).
type Seq []Label

// Clone returns an independent copy of s.
func (s Seq) Clone() Seq {
	if s == nil {
		return nil
	}
	c := make(Seq, len(s))
	copy(c, s)
	return c
}

// Equal reports whether s and t contain the same labels in the same order.
func (s Seq) Equal(t Seq) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Concat returns the concatenation s ∘ t as a fresh sequence.
func (s Seq) Concat(t Seq) Seq {
	out := make(Seq, 0, len(s)+len(t))
	out = append(out, s...)
	out = append(out, t...)
	return out
}

// Power returns s repeated z times. Power(s, 0) is the empty sequence.
func (s Seq) Power(z int) Seq {
	out := make(Seq, 0, len(s)*z)
	for i := 0; i < z; i++ {
		out = append(out, s...)
	}
	return out
}

// String renders the sequence as "(l0,l3,l1)" using numeric label ids.
func (s Seq) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, l := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "l%d", l)
	}
	b.WriteByte(')')
	return b.String()
}

// Format renders the sequence using the provided label names, falling back to
// numeric ids for labels without a name.
func (s Seq) Format(names []string) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, l := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		if int(l) >= 0 && int(l) < len(names) && names[l] != "" {
			b.WriteString(names[l])
		} else {
			fmt.Fprintf(&b, "l%d", l)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// failure fills fail with the KMP failure function of s: fail[i] is the
// length of the longest proper prefix of s[:i] that is also a suffix of
// s[:i]. fail must have length len(s)+1. It returns fail for convenience.
func failure(s Seq, fail []int) []int {
	fail[0] = 0
	if len(s) == 0 {
		return fail
	}
	fail[1] = 0
	k := 0
	for i := 1; i < len(s); i++ {
		for k > 0 && s[i] != s[k] {
			k = fail[k]
		}
		if s[i] == s[k] {
			k++
		}
		fail[i+1] = k
	}
	return fail
}

// SmallestPeriod returns the smallest p >= 1 such that s[i] == s[i-p] for all
// i >= p. Every sequence of length n >= 1 has a smallest period in [1, n].
// The empty sequence has period 0.
func SmallestPeriod(s Seq) int {
	if len(s) == 0 {
		return 0
	}
	// Query constraints are short (k <= 8), so a stack buffer keeps the
	// per-query validation path allocation-free; longer sequences (only
	// reachable through direct labelseq use) fall back to the heap.
	var buf [16]int
	var fail []int
	if len(s)+1 <= len(buf) {
		fail = failure(s, buf[:len(s)+1])
	} else {
		// sequences beyond the stack buffer are outside the query path
		fail = failure(s, make([]int, len(s)+1))
	}
	return len(s) - fail[len(s)]
}

// MinimumRepeat returns MR(s): the unique shortest sequence L' with
// s == (L')^z for an integer z >= 1. The result aliases a prefix of s; clone
// it if s will be mutated. MR of the empty sequence is the empty sequence.
func MinimumRepeat(s Seq) Seq {
	n := len(s)
	if n == 0 {
		return s
	}
	p := SmallestPeriod(s)
	if n%p == 0 {
		return s[:p]
	}
	return s
}

// IsPrimitive reports whether s is its own minimum repeat (s == MR(s)).
// The empty sequence is not primitive.
func IsPrimitive(s Seq) bool {
	return len(s) > 0 && len(MinimumRepeat(s)) == len(s)
}

// KMR returns the k-MR of s: MR(s) if |MR(s)| <= k, and ok reports whether
// such a k-MR exists. Following the paper, the empty sequence has no k-MR.
func KMR(s Seq, k int) (mr Seq, ok bool) {
	if len(s) == 0 {
		return nil, false
	}
	mr = MinimumRepeat(s)
	if len(mr) <= k {
		return mr, true
	}
	return nil, false
}

// Kernel returns the kernel/tail decomposition of s per Definition 3:
// s = (kernel)^h ∘ tail with h >= 2, kernel primitive, and tail a proper
// prefix of kernel (possibly empty). ok reports whether s has a kernel;
// Lemma 2 guarantees the kernel is unique when it exists. The returned
// slices alias s.
func Kernel(s Seq) (kernel, tail Seq, ok bool) {
	n := len(s)
	if n < 2 {
		return nil, nil, false
	}
	p := SmallestPeriod(s)
	if 2*p > n {
		return nil, nil, false
	}
	// The prefix of length p is primitive: if it were (X)^m with |X| < p,
	// the whole sequence would have period |X| < p, contradicting p being
	// the smallest period.
	h := n / p
	return s[:p], s[h*p:], true
}

// HasKMRViaKernel implements the Case-3 test of Theorem 1 for a path split
// as prefix (of length exactly 2k) and rest: the path prefix∘rest has a
// non-empty k-MR L' iff prefix has kernel L' and tail L” with
// MR(L” ∘ rest) == L'. It returns that k-MR when it exists.
func HasKMRViaKernel(prefix, rest Seq, k int) (Seq, bool) {
	if len(prefix) != 2*k {
		panic("labelseq: HasKMRViaKernel requires |prefix| == 2k")
	}
	kernel, tail, ok := Kernel(prefix)
	if !ok || len(kernel) > k {
		return nil, false
	}
	if MinimumRepeat(tail.Concat(rest)).Equal(kernel) {
		return kernel, true
	}
	return nil, false
}

// SatisfiesPlus reports whether the label sequence seq satisfies the
// constraint L+ — i.e. MR(seq) == L (Section III-B). L must be primitive.
func SatisfiesPlus(seq, l Seq) bool {
	return len(seq) > 0 && MinimumRepeat(seq).Equal(l)
}
