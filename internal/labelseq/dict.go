package labelseq

import (
	"fmt"
	"math"
)

// ID identifies an interned sequence in a Dict. IDs are dense and start at 0.
type ID uint32

// InvalidID is returned by lookups of sequences that were never interned.
const InvalidID ID = math.MaxUint32

// Code is a packed integer encoding of a short label sequence, used as a map
// key and as an O(1)-updatable search state. For a dictionary with base b
// (b = number of labels + 1), the sequence (l1,...,ln) is encoded as
//
//	code = Σ_{i=1..n} (l_i + 1) * b^(n-i)
//
// i.e. the first label is the most significant digit. The empty sequence has
// code 0. Codes are unique across lengths because digit 0 never occurs.
type Code uint64

// Coder packs label sequences into Codes for a fixed label-set size and a
// maximum sequence length. It supports O(1) append and prepend, which the
// indexing traversals use to maintain the code of the current path suffix
// incrementally.
type Coder struct {
	base Code
	// pow[i] = base^i for i in [0, maxLen].
	pow []Code
}

// NewCoder returns a Coder for sequences over numLabels labels with length
// at most maxLen. It returns an error if the code space does not fit in 63
// bits — for the paper's regimes (k <= 4, |L| <= 50) it always fits.
func NewCoder(numLabels, maxLen int) (*Coder, error) {
	if numLabels < 1 {
		return nil, fmt.Errorf("labelseq: NewCoder: numLabels must be >= 1, got %d", numLabels)
	}
	if maxLen < 1 {
		return nil, fmt.Errorf("labelseq: NewCoder: maxLen must be >= 1, got %d", maxLen)
	}
	base := Code(numLabels + 1)
	pow := make([]Code, maxLen+1)
	pow[0] = 1
	for i := 1; i <= maxLen; i++ {
		if pow[i-1] > (1<<63)/base {
			return nil, fmt.Errorf("labelseq: NewCoder: %d labels with max length %d overflow the 63-bit code space", numLabels, maxLen)
		}
		pow[i] = pow[i-1] * base
	}
	return &Coder{base: base, pow: pow}, nil
}

// MaxLen returns the maximum sequence length supported by the coder.
func (c *Coder) MaxLen() int { return len(c.pow) - 1 }

// Encode packs s into a Code. It panics if s is longer than MaxLen or
// contains labels outside the coder's label set. Encoding a valid sequence
// is pure arithmetic — it runs once per query on the serving hot path, so
// core's TestQueryAllocFree holds it allocation-free; only the panic messages
// build anything.
func (c *Coder) Encode(s Seq) Code {
	if len(s) > c.MaxLen() {
		panic(fmt.Sprintf("labelseq: Encode: sequence length %d exceeds max %d", len(s), c.MaxLen()))
	}
	var code Code
	for _, l := range s {
		c.checkLabel(l)
		code = code*c.base + Code(l+1)
	}
	return code
}

// Append returns the code of (decoded(code) ∘ l). len is the current length.
func (c *Coder) Append(code Code, l Label) Code {
	c.checkLabel(l)
	return code*c.base + Code(l+1)
}

// Prepend returns the code of (l ∘ decoded(code)), where length is the
// length of the sequence currently encoded by code.
func (c *Coder) Prepend(code Code, l Label, length int) Code {
	c.checkLabel(l)
	return Code(l+1)*c.pow[length] + code
}

// Decode unpacks a code of known length back into a sequence.
func (c *Coder) Decode(code Code, length int) Seq {
	s := make(Seq, length)
	for i := length - 1; i >= 0; i-- {
		digit := code % c.base
		s[i] = Label(digit - 1)
		code /= c.base
	}
	return s
}

func (c *Coder) checkLabel(l Label) {
	if l < 0 || Code(l+1) >= c.base {
		panic(fmt.Sprintf("labelseq: label %d out of range for base %d", l, c.base))
	}
}

// Dict interns label sequences, assigning each distinct sequence a dense ID.
// The RLC index stores (hub, ID) pairs instead of raw sequences, which is
// the "succinct label sequences" representation of Section V. Dict is not
// safe for concurrent mutation.
type Dict struct {
	coder *Coder
	ids   map[Code]ID
	seqs  []Seq
	codes []Code
}

// NewDict returns an empty dictionary over numLabels labels for sequences of
// length at most maxLen (typically the recursive k).
func NewDict(numLabels, maxLen int) (*Dict, error) {
	coder, err := NewCoder(numLabels, maxLen)
	if err != nil {
		return nil, err
	}
	return &Dict{coder: coder, ids: make(map[Code]ID)}, nil
}

// Coder exposes the dictionary's sequence coder.
func (d *Dict) Coder() *Coder { return d.coder }

// Len returns the number of interned sequences.
func (d *Dict) Len() int { return len(d.seqs) }

// Intern returns the ID of s, interning it first if necessary.
func (d *Dict) Intern(s Seq) ID {
	return d.InternCode(d.coder.Encode(s), s)
}

// InternCode interns a sequence by its precomputed code, avoiding the encode
// pass on hot paths. s is cloned on first insertion.
func (d *Dict) InternCode(code Code, s Seq) ID {
	if id, ok := d.ids[code]; ok {
		return id
	}
	id := ID(len(d.seqs))
	d.ids[code] = id
	d.seqs = append(d.seqs, s.Clone())
	d.codes = append(d.codes, code)
	return id
}

// Lookup returns the ID of s, or InvalidID if s was never interned.
func (d *Dict) Lookup(s Seq) ID {
	if id, ok := d.ids[d.coder.Encode(s)]; ok {
		return id
	}
	return InvalidID
}

// LookupCode returns the ID for a precomputed code, or InvalidID.
func (d *Dict) LookupCode(code Code) ID {
	if id, ok := d.ids[code]; ok {
		return id
	}
	return InvalidID
}

// Seq returns the sequence interned under id. The result must not be
// mutated.
func (d *Dict) Seq(id ID) Seq {
	return d.seqs[id]
}

// Code returns the packed code of the sequence interned under id.
func (d *Dict) Code(id ID) Code {
	return d.codes[id]
}
