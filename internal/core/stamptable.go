package core

// stampTable is the builder's scratch hash table: open addressing with
// linear probing over 16-byte slots, keyed by a (uint64, uint32) pair,
// holding an int32 per key. It exists because one Build runs tens of
// thousands of searches that each need a few empty sets, and most of those
// searches touch a handful of keys after an early hub search grew the sets
// to its own size: a slot is live only while its gen equals the table's, so
// reset empties the table by bumping one counter instead of sweeping storage
// sized by the largest search so far. Slots are swept only when the counter
// wraps, once in 2^32 resets.
//
// Keys are never deleted individually, so probing needs no tombstones. The
// load factor stays at or below one half.
type stampTable struct {
	slots []stampSlot
	vals  []int32 // parallel to slots; a set's callers never read it
	shift uint    // 64 - log2(len(slots)): the hash's top bits pick the slot
	count int     // live keys
	gen   uint32  // never 0: the zero slot is dead in every generation
}

type stampSlot struct {
	k1  uint64
	k2  uint32
	gen uint32
}

// newStampTable returns an empty table with 1<<logSlots slots.
func newStampTable(logSlots uint) *stampTable {
	return &stampTable{
		slots: make([]stampSlot, 1<<logSlots),
		vals:  make([]int32, 1<<logSlots),
		shift: 64 - logSlots,
		gen:   1,
	}
}

// reset empties the table in O(1).
func (t *stampTable) reset() {
	t.count = 0
	t.gen++
	if t.gen == 0 {
		// Wrapped: a slot stamped 2^32 resets ago would read as live again.
		clear(t.slots)
		t.gen = 1
	}
}

// home is the slot a key's probe sequence starts at. The keys are small
// dense integers (vertex ids, packed label codes, their concatenation), so
// the multiply has to carry every input bit into the top bits that index
// the table.
func (t *stampTable) home(k1 uint64, k2 uint32) int {
	h := (k1 ^ uint64(k2)*0x9E3779B97F4A7C15) * 0xD6E8FEB86659FD93
	h ^= h >> 32
	return int((h * 0xD6E8FEB86659FD93) >> t.shift)
}

// put stores v under the key unless the key is already present, and returns
// the value the key now maps to and whether it was there before — the one
// operation behind "add to a set, was it new?" and "slot of this key,
// assigning the next free one". Room for one more key is made before
// probing, so the slot the probe ends on stays valid.
func (t *stampTable) put(k1 uint64, k2 uint32, v int32) (int32, bool) {
	if 2*(t.count+1) > len(t.slots) {
		// doubling growth, amortised over the build
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(k1, k2); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = stampSlot{k1: k1, k2: k2, gen: t.gen}
			t.vals[i] = v
			t.count++
			return v, false
		}
		if s.k1 == k1 && s.k2 == k2 {
			return t.vals[i], true
		}
	}
}

// grow doubles the table and re-seats the live keys; dead slots are dropped.
func (t *stampTable) grow() {
	old, oldVals := t.slots, t.vals
	t.slots = make([]stampSlot, 2*len(old))
	t.vals = make([]int32, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for j := range old {
		s := &old[j]
		if s.gen != t.gen {
			continue
		}
		i := t.home(s.k1, s.k2)
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = *s
		t.vals[i] = oldVals[j]
	}
}
