package core

import (
	"math"
	"math/rand"
	"testing"
)

// get returns the value stored under the key and whether there is one: the
// read side the tests check put and reset through (the builder only puts).
func (t *stampTable) get(k1 uint64, k2 uint32) (int32, bool) {
	mask := len(t.slots) - 1
	for i := t.home(k1, k2); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return 0, false
		}
		if s.k1 == k1 && s.k2 == k2 {
			return t.vals[i], true
		}
	}
}

// stampOps drives a stampTable and a map[[2]uint64]int32 through the same
// put/get/reset sequence, three bytes per operation, and fails on the first
// disagreement. The table starts at four slots, so a few puts already grow
// it mid-generation, and at generation MaxUint32-2, so the third reset wraps
// the counter. Keys come from a small space (with the high bits of both
// words in play) so that gets mostly ask for keys of earlier generations:
// a stale slot reading as present is the bug this hunts.
func stampOps(t *testing.T, ops []byte) {
	t.Helper()
	tab := newStampTable(2)
	tab.gen = math.MaxUint32 - 2
	model := make(map[[2]uint64]int32)
	ever := make(map[[2]uint64]struct{})

	for n := 0; len(ops) >= 3; n++ {
		op, a, b := ops[0], ops[1], ops[2]
		ops = ops[3:]
		k1 := uint64(a&0x3f) | uint64(a>>6)<<62
		k2 := uint32(b&0x03) | uint32(b>>7)<<31
		key := [2]uint64{k1, uint64(k2)}
		switch {
		case op < 8:
			tab.reset()
			clear(model)
			for k := range ever {
				if v, ok := tab.get(k[0], uint32(k[1])); ok {
					t.Fatalf("op %d: after reset key %v reads %d", n, k, v)
				}
			}
		case op < 160:
			v := int32(n)
			want, had := model[key]
			if !had {
				model[key] = v
				want = v
			}
			ever[key] = struct{}{}
			if got, ok := tab.put(k1, k2, v); got != want || ok != had {
				t.Fatalf("op %d: put(%v, %d) = (%d, %v), want (%d, %v)", n, key, v, got, ok, want, had)
			}
		default:
			want, had := model[key]
			if got, ok := tab.get(k1, k2); got != want || ok != had {
				t.Fatalf("op %d: get(%v) = (%d, %v), want (%d, %v)", n, key, got, ok, want, had)
			}
		}
		if tab.count != len(model) {
			t.Fatalf("op %d: count = %d, model holds %d", n, tab.count, len(model))
		}
		if 2*tab.count > len(tab.slots) {
			t.Fatalf("op %d: %d keys in %d slots, load above one half", n, tab.count, len(tab.slots))
		}
	}
	for k, want := range model {
		if got, ok := tab.get(k[0], uint32(k[1])); !ok || got != want {
			t.Fatalf("end: get(%v) = (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
}

func TestStampTable(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		ops := make([]byte, 3*(1+r.Intn(4000)))
		r.Read(ops)
		stampOps(t, ops)
	}
}

// TestStampTableGrowthAndWrap spells out the three edges the random
// sequences cover only probably: growth in the middle of a generation keeps
// every key and value, a reset after growth empties the grown table without
// shrinking it, and a generation counter that wraps sweeps the slots so that
// keys stamped with the reused generation numbers stay dead.
func TestStampTableGrowthAndWrap(t *testing.T) {
	tab := newStampTable(2)
	tab.gen = math.MaxUint32 - 2
	const n = 1000
	fill := func(round int32) {
		for i := int32(0); i < n; i++ {
			if _, had := tab.put(uint64(i)<<20, uint32(i), i+round); had {
				t.Fatalf("round %d: key %d present before its put", round, i)
			}
		}
		for i := int32(0); i < n; i++ {
			if v, ok := tab.get(uint64(i)<<20, uint32(i)); !ok || v != i+round {
				t.Fatalf("round %d: get(%d) = (%d, %v), want (%d, true)", round, i, v, ok, i+round)
			}
		}
	}
	fill(0)
	grown := len(tab.slots)
	if grown < 2*n {
		t.Fatalf("%d keys in %d slots", n, grown)
	}
	// Generations MaxUint32-2, -1, MaxUint32, then the wrap to 1 and on to
	// 2 and 3: six generations, each holding every key with its own values.
	for round := int32(1); round <= 5; round++ {
		tab.reset()
		if tab.gen == 0 {
			t.Fatal("generation 0 is the dead stamp")
		}
		if tab.count != 0 || len(tab.slots) != grown {
			t.Fatalf("round %d: after reset count = %d, %d slots (had %d)", round, tab.count, len(tab.slots), grown)
		}
		for i := int32(0); i < n; i++ {
			if v, ok := tab.get(uint64(i)<<20, uint32(i)); ok {
				t.Fatalf("round %d: key %d survived the reset with value %d", round, i, v)
			}
		}
		fill(round)
	}
	if tab.gen != 3 {
		t.Fatalf("generation = %d after five resets from MaxUint32-2, want 3", tab.gen)
	}

	// A slot stamped in generation 1 and never overwritten is still there
	// 2^32-1 resets later (jumped over here); only the sweep at the wrap
	// keeps it from reading as live in the next generation 1.
	old := newStampTable(4)
	old.put(5, 5, 5)
	old.gen, old.count = math.MaxUint32, 0
	old.reset()
	if v, ok := old.get(5, 5); ok || old.gen != 1 {
		t.Fatalf("after the wrap: generation %d, get = (%d, %v), want generation 1 and the key gone", old.gen, v, ok)
	}
}

func FuzzStampTable(f *testing.F) {
	f.Add([]byte{100, 1, 1, 200, 1, 1, 0, 0, 0, 200, 1, 1})
	// Enough distinct puts to grow twice, a reset, the same keys again.
	var grow []byte
	for round := 0; round < 2; round++ {
		for i := byte(0); i < 40; i++ {
			grow = append(grow, 100, i, i)
		}
		grow = append(grow, 0, 0, 0)
	}
	f.Add(grow)
	// Four resets with a put between each: across the wrap.
	f.Add([]byte{100, 7, 3, 0, 0, 0, 100, 7, 3, 0, 0, 0, 200, 7, 3, 0, 0, 0, 100, 9, 1, 0, 0, 0, 200, 7, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		stampOps(t, ops)
	})
}
