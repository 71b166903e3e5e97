package server

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errComputePanicked is what coalesced waiters receive when the flight
// leader's computation panicked: the panic itself propagates only on the
// leader (where net/http's handler recovery can report it), but the waiters
// must still be unblocked with a failure.
var errComputePanicked = errors.New("server: query computation panicked")

// cacheKey identifies one query result: the resolved endpoint ids plus the
// constraint in one of two encodings. The hot single-L+ path packs the label
// sequence into code (base numLabels+1, first label most significant — the
// labelseq.Code scheme) so a key costs no allocation; expressions that don't
// fit that encoding (multi-segment, or too long for 63 bits) carry the
// canonical text of the parsed expression instead, with code 0. The two
// ranges cannot collide: every packed nonempty sequence has code >= 1, and
// expr keys always have code 0. Keying on the parsed form means "(l0 l1)+",
// "l0 l1", and a named spelling of the same labels share one cache slot.
type cacheKey struct {
	s, t int32
	code uint64
	expr string
}

// CacheStats is a point-in-time snapshot of the result cache's counters.
type CacheStats struct {
	// Hits counts lookups answered from a resident entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to compute the answer.
	Misses int64 `json:"misses"`
	// Coalesced counts lookups that arrived while an identical miss was
	// already computing and waited for its result instead of recomputing
	// (singleflight deduplication). They are neither hits nor misses.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries displaced by the LRU policy.
	Evictions int64 `json:"evictions"`
	// Entries is the number of currently resident results.
	Entries int64 `json:"entries"`
	// Capacity is the configured maximum number of resident results
	// (0 when the cache is disabled).
	Capacity int64 `json:"capacity"`
}

// HitRate is Hits / (Hits + Misses + Coalesced), or 0 before any lookup.
func (c CacheStats) HitRate() float64 {
	total := c.Hits + c.Misses + c.Coalesced
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// flight is one in-progress computation other goroutines can wait on. ver is
// the write version the computation started at: callers at a newer version
// must not coalesce onto it (its result may predate their writes).
type flight struct {
	done chan struct{}
	val  bool
	err  error
	ver  uint64
}

// lruNode is one resident entry in a shard's intrusive LRU list. Nodes are
// index-linked into the shard's node slice so a full shard is one allocation
// block instead of a pointer web. ver stamps the write version the value was
// computed at (see the validity rule in do).
type lruNode struct {
	key        cacheKey
	val        bool
	ver        uint64
	prev, next int32
}

// cacheShard is an independently locked LRU over its slice of the key space.
type cacheShard struct {
	mu      sync.Mutex
	table   map[cacheKey]int32 // key -> node index
	nodes   []lruNode
	head    int32 // most recently used; -1 when empty
	tail    int32 // least recently used; -1 when empty
	cap     int
	flights map[cacheKey]*flight
}

// cache is the sharded LRU result cache with singleflight deduplication that
// fronts the index on the serving path. Shard count is a power of two so key
// hashes map to shards with a mask.
type cache struct {
	shards []cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
	entries   atomic.Int64
	capacity  int64
}

// newCache sizes a cache for totalEntries split over shards (shards already
// a power of two from Options). Shard count is halved until every shard
// holds at least one entry, and the remainder is spread over the leading
// shards, so the per-shard capacities sum to exactly totalEntries — the
// Capacity that CacheStats reports is the hard resident bound.
func newCache(totalEntries, shards int) *cache {
	for shards > 1 && shards > totalEntries {
		shards >>= 1
	}
	c := &cache{
		shards:   make([]cacheShard, shards),
		capacity: int64(totalEntries),
	}
	per, extra := totalEntries/shards, totalEntries%shards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = per
		if i < extra {
			sh.cap++
		}
		sh.table = make(map[cacheKey]int32, sh.cap)
		sh.flights = make(map[cacheKey]*flight)
		sh.head, sh.tail = -1, -1
	}
	return c
}

// shardFor mixes the key into a shard index. The hot path (code keys) is a
// handful of multiply-xor steps; string keys add an FNV pass over the text.
func (c *cache) shardFor(k cacheKey) *cacheShard {
	h := uint64(uint32(k.s))<<32 | uint64(uint32(k.t))
	h ^= k.code * 0x9e3779b97f4a7c15
	for i := 0; i < len(k.expr); i++ {
		h = (h ^ uint64(k.expr[i])) * 1099511628211
	}
	h = (h ^ (h >> 33)) * 0xff51afd7ed558ccd
	h ^= h >> 33
	return &c.shards[h&uint64(len(c.shards)-1)]
}

// do returns the cached answer for k, or computes it exactly once across all
// concurrent callers. cached reports whether the answer came from a resident
// entry; coalesced callers report cached=false (they waited for the compute).
// Errors are broadcast to coalesced waiters but never cached: a failing
// compute (e.g. a transient condition) must not poison the key.
//
// ver is the caller's write version: the serving generation's journal
// position (state.seqNow) at request start, constant on immutable servers.
// Caches are per generation, so stamps never cross epochs. Validity exploits
// that the write path is insert-only — edges are only ever added, deletions
// are rejected — so reachability answers within a generation are monotone:
// a cached TRUE can never be invalidated by a write and is served at any
// version, while a cached FALSE may have been flipped by a later insert and
// is served only at the exact version it was computed at. One insert thus
// logically invalidates every negative entry at once without touching them;
// stale negatives are refreshed in place on their next miss.
func (c *cache) do(k cacheKey, ver uint64, compute func() (bool, error)) (val bool, cached bool, err error) {
	sh := c.shardFor(k)

	sh.mu.Lock()
	if idx, ok := sh.table[k]; ok {
		n := &sh.nodes[idx]
		if n.val || n.ver == ver {
			sh.moveToFront(idx)
			val = n.val
			sh.mu.Unlock()
			c.hits.Add(1)
			return val, true, nil
		}
		// Stale FALSE: fall through and recompute (refreshing the entry).
	}
	if fl, ok := sh.flights[k]; ok && fl.ver == ver {
		sh.mu.Unlock()
		c.coalesced.Add(1)
		<-fl.done
		return fl.val, false, fl.err
	}
	// No flight at this version. A resident flight from an older version
	// may return an answer that predates this caller's writes, so it is
	// not joined — a replacement flight at the current version takes its
	// map slot instead (finish only deletes the entry it still owns), and
	// later same-version callers coalesce onto the replacement rather than
	// stampeding. The two finishes race benignly: both stamp their own
	// version, and TRUE wins by monotonicity either way.
	fl := &flight{done: make(chan struct{}), ver: ver}
	sh.flights[k] = fl
	sh.mu.Unlock()
	c.misses.Add(1)

	// The flight MUST resolve even if compute panics — otherwise the key
	// is wedged forever: every later request would block on fl.done. The
	// deferred path fails the flight and lets the panic propagate.
	finish := func() {
		sh.mu.Lock()
		if sh.flights[k] == fl {
			delete(sh.flights, k)
		}
		if fl.err == nil {
			c.account(sh.insert(k, fl.ver, fl.val))
		}
		sh.mu.Unlock()
		close(fl.done)
	}
	panicked := true
	defer func() {
		if panicked {
			fl.val, fl.err = false, errComputePanicked
			finish()
		}
	}()
	fl.val, fl.err = compute()
	panicked = false
	finish()
	return fl.val, false, fl.err
}

// account applies one insert outcome to the shared counters.
func (c *cache) account(added, evicted bool) {
	if added {
		c.entries.Add(1)
	}
	if evicted {
		c.evictions.Add(1)
	}
}

// hitProbe is the allocation-free fast path in front of do: a pure resident
// lookup that counts only hits. A probe failure is not yet a miss — the
// caller falls through to do, which counts the miss (or coalesces onto a
// flight) after building the detached context and compute closure that the
// hit path never pays for.
//
//rlc:noalloc
func (c *cache) hitProbe(k cacheKey, ver uint64) (val, ok bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	idx, ok := sh.table[k]
	if ok {
		n := &sh.nodes[idx]
		if n.val || n.ver == ver {
			sh.moveToFront(idx)
			val = n.val
		} else {
			ok = false // stale FALSE: recompute via do
		}
	}
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return val, ok
}

// stats snapshots the counters. Counters are read individually without a
// global lock, so a snapshot taken under load is approximate — fine for
// monitoring, which is its only use.
func (c *cache) stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries.Load(),
		Capacity:  c.capacity,
	}
}

// insert adds or refreshes k under the shard lock. added reports a net new
// resident entry, evicted that the LRU tail was displaced to make room.
// Re-inserting a resident key (two flights at different versions racing, or
// a stale negative being refreshed) just updates its value, version, and
// recency — a TRUE never regresses to FALSE because computes observing the
// insert run at a version at least as new.
func (sh *cacheShard) insert(k cacheKey, ver uint64, val bool) (added, evicted bool) {
	if idx, ok := sh.table[k]; ok {
		n := &sh.nodes[idx]
		if !n.val || val {
			n.val, n.ver = val, ver
		}
		sh.moveToFront(idx)
		return false, false
	}
	var idx int32
	switch {
	case len(sh.nodes) < sh.cap:
		sh.nodes = append(sh.nodes, lruNode{})
		idx = int32(len(sh.nodes) - 1)
		added = true
	default:
		// Full: recycle the LRU tail in place (entry count unchanged).
		idx = sh.tail
		sh.unlink(idx)
		delete(sh.table, sh.nodes[idx].key)
		evicted = true
	}
	sh.nodes[idx] = lruNode{key: k, val: val, ver: ver, prev: -1, next: -1}
	sh.table[k] = idx
	sh.pushFront(idx)
	return added, evicted
}

func (sh *cacheShard) moveToFront(idx int32) {
	if sh.head == idx {
		return
	}
	sh.unlink(idx)
	sh.pushFront(idx)
}

func (sh *cacheShard) pushFront(idx int32) {
	n := &sh.nodes[idx]
	n.prev = -1
	n.next = sh.head
	if sh.head >= 0 {
		sh.nodes[sh.head].prev = idx
	}
	sh.head = idx
	if sh.tail < 0 {
		sh.tail = idx
	}
}

func (sh *cacheShard) unlink(idx int32) {
	n := &sh.nodes[idx]
	if n.prev >= 0 {
		sh.nodes[n.prev].next = n.next
	} else {
		sh.head = n.next
	}
	if n.next >= 0 {
		sh.nodes[n.next].prev = n.prev
	} else {
		sh.tail = n.prev
	}
	n.prev, n.next = -1, -1
}
