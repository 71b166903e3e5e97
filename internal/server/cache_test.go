package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitMissEviction(t *testing.T) {
	c := newCache(4, 1) // one shard, four entries: eviction order is exact
	key := func(i int) cacheKey { return cacheKey{s: int32(i), t: int32(i), expr: "(l0)+"} }
	compute := func(val bool) func() (bool, error) {
		return func() (bool, error) { return val, nil }
	}

	for i := 0; i < 4; i++ {
		if _, cached, _ := c.do(key(i), 0, compute(i%2 == 0)); cached {
			t.Fatalf("first lookup of key %d reported cached", i)
		}
	}
	st := c.stats()
	if st.Misses != 4 || st.Hits != 0 || st.Entries != 4 || st.Evictions != 0 {
		t.Fatalf("after 4 cold lookups: %+v", st)
	}

	// All four are resident.
	for i := 0; i < 4; i++ {
		val, cached, err := c.do(key(i), 0, compute(false))
		if err != nil || !cached || val != (i%2 == 0) {
			t.Fatalf("key %d: val=%v cached=%v err=%v", i, val, cached, err)
		}
	}
	if st = c.stats(); st.Hits != 4 {
		t.Fatalf("after 4 warm lookups: %+v", st)
	}

	// Key 0 was touched most recently except 1..3; LRU order is 0,1,2,3 with
	// 3 most recent. Inserting key 4 must evict key 0.
	if _, cached, _ := c.do(key(4), 0, compute(true)); cached {
		t.Fatal("key 4 reported cached on first lookup")
	}
	st = c.stats()
	if st.Evictions != 1 || st.Entries != 4 {
		t.Fatalf("after eviction: %+v", st)
	}
	if _, cached, _ := c.do(key(0), 0, compute(true)); cached {
		t.Fatal("key 0 still cached after it should have been evicted")
	}
	if _, cached, _ := c.do(key(3), 0, compute(false)); !cached {
		t.Fatal("key 3 evicted although it was more recently used than key 0")
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newCache(8, 1)
	k := cacheKey{s: 1, t: 2, expr: "(l0)+"}
	wantErr := fmt.Errorf("transient")
	if _, _, err := c.do(k, 0, func() (bool, error) { return false, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
	// The key still computes (and caches) after a failed attempt.
	val, cached, err := c.do(k, 0, func() (bool, error) { return true, nil })
	if err != nil || cached || !val {
		t.Fatalf("retry after error: val=%v cached=%v err=%v", val, cached, err)
	}
	if _, cached, _ = c.do(k, 0, func() (bool, error) { return false, nil }); !cached {
		t.Fatal("successful retry was not cached")
	}
}

// TestCacheSingleflight proves concurrent identical misses coalesce onto one
// computation: the first caller computes, the rest wait for its result.
func TestCacheSingleflight(t *testing.T) {
	c := newCache(8, 1)
	k := cacheKey{s: 7, t: 9, expr: "(l0,l1)+"}

	const waiters = 16
	var computes atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)

	var wg sync.WaitGroup
	results := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, _, err := c.do(k, 0, func() (bool, error) {
				entered <- struct{}{} // only the flight leader gets here
				<-gate
				computes.Add(1)
				return true, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = val
		}(i)
	}

	<-entered // one goroutine is computing; let the rest pile up, then release
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if !v {
			t.Fatalf("waiter %d got the wrong value", i)
		}
	}
	st := c.stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Coalesced+st.Hits != waiters-1 {
		// Goroutines that reach the cache after the flight completes score
		// as hits; those that arrive during it score as coalesced.
		t.Fatalf("coalesced=%d hits=%d, want them to sum to %d", st.Coalesced, st.Hits, waiters-1)
	}
}

// TestCachePanicUnwedgesKey proves a panicking computation cannot wedge its
// key: a waiter coalesced onto the flight is unblocked with
// errComputePanicked, the panic propagates on the leader, and the key
// computes normally afterwards.
func TestCachePanicUnwedgesKey(t *testing.T) {
	c := newCache(8, 1)
	k := cacheKey{s: 3, t: 4, code: 9}

	entered := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		<-entered
		_, _, err := c.do(k, 0, func() (bool, error) { return true, nil })
		waiterErr <- err
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader's panic did not propagate")
			}
		}()
		c.do(k, 0, func() (bool, error) {
			close(entered)
			// Let the waiter land in the flight map before panicking.
			time.Sleep(50 * time.Millisecond)
			panic("compute exploded")
		})
	}()

	// The waiter must come back — either coalesced onto the failed flight
	// or, if it lost the race, with its own successful compute.
	select {
	case err := <-waiterErr:
		if err != nil && err != errComputePanicked {
			t.Fatalf("waiter error = %v, want nil or errComputePanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked: the panicked flight was never resolved")
	}

	// The key is not wedged: a fresh computation succeeds and caches.
	val, cached, err := c.do(k, 0, func() (bool, error) { return true, nil })
	if err != nil || !val {
		t.Fatalf("post-panic compute: val=%v cached=%v err=%v", val, cached, err)
	}
	if _, cached, _ = c.do(k, 0, func() (bool, error) { return false, nil }); !cached {
		t.Fatal("post-panic result was not cached")
	}
}

func TestCacheCapacityExact(t *testing.T) {
	cases := []struct{ entries, shards int }{
		{8, 32},    // fewer entries than shards: shard count must shrink
		{1000, 32}, // non-divisible split: remainder spread over shards
		{1, 1},
	}
	for _, tc := range cases {
		c := newCache(tc.entries, tc.shards)
		total := 0
		for i := range c.shards {
			if c.shards[i].cap < 1 {
				t.Errorf("newCache(%d, %d): shard %d has capacity %d", tc.entries, tc.shards, i, c.shards[i].cap)
			}
			total += c.shards[i].cap
		}
		if total != tc.entries {
			t.Errorf("newCache(%d, %d): shard capacities sum to %d", tc.entries, tc.shards, total)
		}
		if got := c.stats().Capacity; got != int64(tc.entries) {
			t.Errorf("newCache(%d, %d): reported capacity %d", tc.entries, tc.shards, got)
		}
	}
}

// TestCacheConcurrent hammers a small sharded cache from many goroutines
// with an overlapping keyspace so hits, misses, coalesced waits, and
// evictions all occur concurrently; run under -race this is the data-race
// proof for the serving path's only mutable state.
func TestCacheConcurrent(t *testing.T) {
	c := newCache(64, 4)
	const (
		goroutines = 8
		iters      = 2000
		keyspace   = 256 // 4x capacity: steady-state evictions guaranteed
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (g*31 + i*7) % keyspace
				want := id%3 == 0
				val, _, err := c.do(cacheKey{s: int32(id), t: int32(id / 2), expr: "(l0)+"}, 0,
					func() (bool, error) { return want, nil })
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if val != want {
					t.Errorf("goroutine %d iter %d: val=%v want %v", g, i, val, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.stats()
	if total := st.Hits + st.Misses + st.Coalesced; total != goroutines*iters {
		t.Fatalf("hits+misses+coalesced = %d, want %d (%+v)", total, goroutines*iters, st)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions with a keyspace 4x the capacity")
	}
}

// TestCacheVersioning pins the monotone validity rule: cached TRUE answers
// survive any version bump (inserts only add paths), cached FALSE answers
// are valid only at the version they were computed at, and a stale negative
// refreshes in place.
func TestCacheVersioning(t *testing.T) {
	c := newCache(8, 1)
	kf := cacheKey{s: 1, t: 2, code: 3}
	kt := cacheKey{s: 4, t: 5, code: 6}
	// fill computes val for k at ver through do, which must not find it
	// resident.
	fill := func(k cacheKey, ver uint64, val bool) {
		t.Helper()
		got, cached, err := c.do(k, ver, func() (bool, error) { return val, nil })
		if err != nil || cached || got != val {
			t.Fatalf("do(%+v, %d): val=%v cached=%v err=%v", k, ver, got, cached, err)
		}
	}

	fill(kf, 0, false)
	fill(kt, 0, true)
	if _, ok := c.hitProbe(kf, 0); !ok {
		t.Fatal("false entry must hit at its own version")
	}
	if _, ok := c.hitProbe(kf, 1); ok {
		t.Fatal("false entry must miss after a version bump")
	}
	if v, ok := c.hitProbe(kt, 7); !ok || !v {
		t.Fatal("true entry must hit at any version")
	}

	// Refresh the stale negative at the new version (false -> false).
	fill(kf, 1, false)
	if _, ok := c.hitProbe(kf, 1); !ok {
		t.Fatal("refreshed false entry must hit at the refresh version")
	}
	// A late stale compute must not regress a TRUE back to FALSE: a flight
	// that started at version 0 finishes with FALSE after a flight at
	// version 1 has made TRUE resident.
	kr := cacheKey{s: 7, t: 8, code: 9}
	entered, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.do(kr, 0, func() (bool, error) {
			close(entered)
			<-gate
			return false, nil
		})
	}()
	<-entered
	fill(kr, 1, true)
	close(gate)
	<-done
	if v, ok := c.hitProbe(kr, 9); !ok || !v {
		t.Fatal("stale false overwrite regressed a cached TRUE")
	}
	// do() at a newer version recomputes over a stale false and caches it.
	fill(kf, 2, true)
	if v, ok := c.hitProbe(kf, 99); !ok || !v {
		t.Fatal("recomputed TRUE not resident")
	}
	if st := c.stats(); st.Entries != 3 || st.Misses != 6 {
		t.Fatalf("three keys, six computes: %+v", st)
	}
}
