package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
)

// sizing is everything about a run that is not the seed: how big the
// inputs are and how long each phase lasts. The defaults are the sizes
// README.md argues for; -smoke shrinks all of them so the whole harness
// runs in seconds.
type sizing struct {
	vertices      int
	pool          int // distinct queries; 4x the server's default result cache
	hotSet        int // point-hot draws from the first hotSet pool entries
	batchSize     int // queries per POST /batch
	batchBodies   int // pre-encoded /batch requests, cycled
	streamLen     int // pre-drawn point requests, cycled
	setups        int // set-ups per run, half before the measured window and half after
	warmup        time.Duration
	slice         time.Duration // the measured window is cut into slices of this length; see quiet
	writeEvery    time.Duration // mixed-repl: one POST /update per interval
	traceRequests int           // requests replayed by the traced run
	verifySample  int           // queries in the traversal gate and the post-cutover follower check
}

func defaultSizing(vertices int) sizing {
	return sizing{
		vertices: vertices, pool: 262144, hotSet: 16384, batchSize: 512, batchBodies: 1024,
		streamLen: 1 << 19, setups: 5, warmup: time.Second, slice: 250 * time.Millisecond,
		writeEvery: 10 * time.Millisecond, traceRequests: 20000, verifySample: 2000,
	}
}

func smokeSizing() sizing {
	return sizing{
		vertices: 600, pool: 8192, hotSet: 512, batchSize: 64, batchBodies: 64,
		streamLen: 1 << 14, setups: 1, warmup: 100 * time.Millisecond, slice: 250 * time.Millisecond,
		writeEvery: 10 * time.Millisecond, traceRequests: 1000, verifySample: 200,
	}
}

// query is one pool entry: is t reachable from s by a path spelling (a b)+ ?
// A negative b makes it the single-label constraint (a)+, which only the
// read that follows a write uses.
type query struct {
	s, t graph.Vertex
	a, b graph.Label
	want bool
}

func (q query) seq() labelseq.Seq {
	if q.b < 0 {
		return labelseq.Seq{q.a}
	}
	return labelseq.Seq{q.a, q.b}
}

// arena holds many pre-encoded requests back to back, so the timed loop
// sends slices of one allocation and never formats anything.
type arena struct {
	buf []byte
	off []uint32
}

func (a *arena) add(b []byte) {
	if len(a.off) == 0 {
		a.off = append(a.off, 0)
	}
	a.buf = append(a.buf, b...)
	a.off = append(a.off, uint32(len(a.buf)))
}

func (a *arena) get(i int) []byte { return a.buf[a.off[i]:a.off[i+1]] }
func (a *arena) len() int         { return len(a.off) - 1 }

// graphSeed draws the graph and the set of edges mixed-repl withholds from
// it. It is a constant, not the run's seed: the driver judges a metric by
// how far it spreads over runs with different seeds, and bundle size, build
// time and the share of queries that fall through to traversal all move by
// several percent from one generated graph to the next — a spread that would
// have to be covered by a bound too loose to catch anything.
const graphSeed = 1

// inputs is everything one workload sends and every answer it expects. The
// run's seed draws the query pool, the request streams and the order of the
// writes; the graph does not move with it (graphSeed).
type inputs struct {
	full     *graph.Graph // the whole graph
	start    *graph.Graph // what the servers boot from: full, minus withheld on mixed-repl
	withheld []graph.Edge // mixed-repl: the edges the run inserts, in order
	oracle   *core.Index  // untiered index over full; the source of FALSE answers
	pool     []query      // TRUE and FALSE alternate, so every prefix is half and half
	reqs     arena        // GET /query per pool entry
	stream   []uint32     // pool indices in send order
	bodies   arena        // batch-cold: whole POST /batch requests
	bodyIdx  []uint32     // batch-cold: pool indices, batchSize per body
	genS     float64
}

// workload names, in the order "all" runs them.
const (
	wPointHot    = "point-hot"
	wBatchCold   = "batch-cold"
	wPointBudget = "point-budget"
	wMixedRepl   = "mixed-repl"
)

var workloadNames = []string{wPointHot, wBatchCold, wPointBudget, wMixedRepl}

// generate derives a workload's inputs. Sub-generators get their own
// streams so that changing one's draws cannot shift another's.
func generate(sz sizing, workload string, seed int64, seconds float64) (*inputs, error) {
	begin := time.Now()
	wn, err := datasets.ByName("WN")
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	if in.full, err = wn.Generate(sz.vertices, graphSeed); err != nil {
		return nil, err
	}
	in.start = in.full
	if workload == wMixedRepl {
		// Half again as many edges as the steady window writes, so the
		// fold window still has edges to insert.
		n := int(seconds/sz.writeEvery.Seconds()*1.5) + 64
		in.withhold(rand.New(rand.NewSource(graphSeed*7919+1)), rand.New(rand.NewSource(seed*7919+1)), n)
	}
	if in.oracle, err = core.Build(in.full, core.Options{K: 2}); err != nil {
		return nil, fmt.Errorf("build oracle: %w", err)
	}
	in.minePool(rand.New(rand.NewSource(seed*7919+2)), sz.pool)
	if err := in.gate(rand.New(rand.NewSource(seed*7919+3)), sz.verifySample); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed*7919 + 4))
	switch workload {
	case wPointHot:
		// s = 1.1 over a set that fits the cache: a few keys take most of
		// the traffic, the tail still misses now and then.
		z := rand.NewZipf(r, 1.1, 1, uint64(sz.hotSet-1))
		in.stream = make([]uint32, sz.streamLen)
		for i := range in.stream {
			in.stream[i] = uint32(z.Uint64())
		}
	case wBatchCold:
		in.bodyIdx = make([]uint32, sz.batchBodies*sz.batchSize)
		for i := range in.bodyIdx {
			in.bodyIdx[i] = uint32(r.Intn(len(in.pool)))
		}
		in.encodeBodies(sz.batchSize)
	default:
		in.stream = make([]uint32, sz.streamLen)
		for i := range in.stream {
			in.stream[i] = uint32(r.Intn(len(in.pool)))
		}
	}
	if workload != wBatchCold {
		var b []byte
		for _, q := range in.pool {
			b = appendQueryRequest(b[:0], q, "")
			in.reqs.add(b)
		}
	}
	in.genS = time.Since(begin).Seconds()
	return in, nil
}

// withhold removes n random edges from full; the run writes them back.
// Which edges is pick's draw, in what order is order's.
func (in *inputs) withhold(pick, order *rand.Rand, n int) {
	edges := in.full.Edges()
	if n > len(edges)/2 {
		n = len(edges) / 2
	}
	pick.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	in.withheld = edges[:n]
	order.Shuffle(n, func(i, j int) { in.withheld[i], in.withheld[j] = in.withheld[j], in.withheld[i] })
	in.start = graph.FromEdges(in.full.NumVertices(), in.full.NumLabels(), edges[n:])
}

// minePool fills the pool with distinct queries, TRUE and FALSE
// alternating. A TRUE query is witnessed by a walk over the start graph
// that spells (a b)^m, so it holds on every graph the run passes through.
// Its FALSE partner keeps the source and the constraint — so FALSE queries
// are not trivially rejected for want of the label pair — and draws targets
// until the oracle over the full graph says no; FALSE on the full graph is
// FALSE on every subgraph of it.
func (in *inputs) minePool(r *rand.Rand, size int) {
	g, n := in.start, in.start.NumVertices()
	seen := make(map[query]struct{}, size)
	in.pool = make([]query, 0, size)
	for len(in.pool) < size {
		q, ok := mineWalk(r, g)
		if !ok {
			continue
		}
		if _, dup := seen[q]; dup {
			continue
		}
		f := q
		f.want = false
		found := false
		for try := 0; try < 64 && !found; try++ {
			f.t = graph.Vertex(r.Intn(n))
			if try >= 32 {
				f.s = graph.Vertex(r.Intn(n))
			}
			if _, dup := seen[f]; dup {
				continue
			}
			reach, err := in.oracle.Query(f.s, f.t, f.seq())
			found = err == nil && !reach
		}
		if !found {
			continue
		}
		seen[q], seen[f] = struct{}{}, struct{}{}
		in.pool = append(in.pool, q, f)
	}
}

// mineWalk takes a random walk and reads a constraint off it: the first
// two edges give (a b), and up to three more repetitions follow those
// labels for as long as the graph allows.
func mineWalk(r *rand.Rand, g *graph.Graph) (query, bool) {
	s := graph.Vertex(r.Intn(g.NumVertices()))
	step := func(v graph.Vertex, want graph.Label) (graph.Vertex, graph.Label, bool) {
		dsts, lbls := g.OutEdges(v)
		pick, seen := -1, 0
		for i, l := range lbls {
			if want < 0 || l == want {
				seen++
				if r.Intn(seen) == 0 {
					pick = i
				}
			}
		}
		if pick < 0 {
			return 0, 0, false
		}
		return dsts[pick], lbls[pick], true
	}
	mid, a, ok := step(s, -1)
	if !ok {
		return query{}, false
	}
	end, b, ok := step(mid, -1)
	if !ok || a == b {
		return query{}, false
	}
	for rep := r.Intn(4); rep > 0; rep-- {
		m, _, ok1 := step(end, a)
		if !ok1 {
			break
		}
		e, _, ok2 := step(m, b)
		if !ok2 {
			break
		}
		end = e
	}
	return query{s: s, t: end, a: a, b: b, want: true}, true
}

// gate checks a sample of the pool against bidirectional product BFS, the
// paper's online baseline, before any clock starts: the oracle index is the
// code under test, so its answers count only once traversal agrees.
func (in *inputs) gate(r *rand.Rand, sample int) error {
	evStart, evFull := traversal.NewEvaluator(in.start), traversal.NewEvaluator(in.full)
	nfas := nfaCache{}
	for i := 0; i < sample; i++ {
		q := in.pool[r.Intn(len(in.pool))]
		nfa, err := nfas.of(q, in.full.NumLabels())
		if err != nil {
			return err
		}
		ev := evFull
		if q.want {
			ev = evStart
		}
		if got := ev.BiBFS(q.s, q.t, nfa); got != q.want {
			return fmt.Errorf("oracle gate: traversal answers %v for %s, pool says %v", got, q, q.want)
		}
		if got, err := in.oracle.Query(q.s, q.t, q.seq()); err != nil || got != q.want {
			return fmt.Errorf("oracle gate: index answers %v (%v) for %s, traversal says %v", got, err, q, q.want)
		}
	}
	return nil
}

// nfaCache compiles each constraint's automaton once; the traversal
// checks ask for the same few dozen label pairs thousands of times.
type nfaCache map[[2]graph.Label]*automaton.NFA

func (c nfaCache) of(q query, numLabels int) (*automaton.NFA, error) {
	key := [2]graph.Label{q.a, q.b}
	if nfa := c[key]; nfa != nil {
		return nfa, nil
	}
	nfa, err := automaton.NewPlus(q.seq(), numLabels)
	if err == nil {
		c[key] = nfa
	}
	return nfa, err
}

func (q query) String() string {
	return fmt.Sprintf("(s=%d, t=%d, %v+)", q.s, q.t, q.seq())
}

// appendQueryRequest appends one GET /query as raw HTTP/1.1; pin, when
// set, rides along as the router's consistency token.
func appendQueryRequest(b []byte, q query, pin string) []byte {
	b = append(b, "GET /query?s="...)
	b = strconv.AppendInt(b, int64(q.s), 10)
	b = append(b, "&t="...)
	b = strconv.AppendInt(b, int64(q.t), 10)
	b = append(b, "&l=%28l"...)
	b = strconv.AppendInt(b, int64(q.a), 10)
	if q.b >= 0 {
		b = append(b, "+l"...)
		b = strconv.AppendInt(b, int64(q.b), 10)
	}
	b = append(b, "%29%2B HTTP/1.1\r\nHost: rlc\r\n"...)
	if pin != "" {
		b = append(b, "X-Rlc-Pin: "...)
		b = append(b, pin...)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// appendPost appends one POST with a JSON body as raw HTTP/1.1.
func appendPost(b []byte, path string, body []byte) []byte {
	b = append(b, "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: rlc\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

func (in *inputs) encodeBodies(batchSize int) {
	var body, req []byte
	for off := 0; off < len(in.bodyIdx); off += batchSize {
		body = append(body[:0], `{"queries":[`...)
		for i, pi := range in.bodyIdx[off : off+batchSize] {
			q := in.pool[pi]
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"s":`...)
			body = strconv.AppendInt(body, int64(q.s), 10)
			body = append(body, `,"t":`...)
			body = strconv.AppendInt(body, int64(q.t), 10)
			body = append(body, `,"l":"(l`...)
			body = strconv.AppendInt(body, int64(q.a), 10)
			body = append(body, " l"...)
			body = strconv.AppendInt(body, int64(q.b), 10)
			body = append(body, `)+"}`...)
		}
		body = append(body, "]}"...)
		req = appendPost(req[:0], "/batch", body)
		in.bodies.add(req)
	}
}

// appendUpdate appends the POST /update that inserts e.
func appendUpdate(b []byte, e graph.Edge) []byte {
	var body [64]byte
	j := append(body[:0], `{"s":`...)
	j = strconv.AppendInt(j, int64(e.Src), 10)
	j = append(j, `,"l":`...)
	j = strconv.AppendInt(j, int64(e.Label), 10)
	j = append(j, `,"t":`...)
	j = strconv.AppendInt(j, int64(e.Dst), 10)
	return appendPost(b, "/update", append(j, '}'))
}

// digest fingerprints the request stream a workload would send: every
// request's bytes in send order, and the withheld edges. The smoke test
// holds it equal for equal seeds and different otherwise.
func (in *inputs) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, pi := range in.stream {
		h.Write(in.reqs.get(int(pi)))
	}
	h.Write(in.bodies.buf)
	for _, e := range in.withheld {
		h.Write(appendUpdate(nil, e))
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}
