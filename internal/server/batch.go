package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// POST /batch accepts one schema,
//
//	{"workers":n,"queries":[{"s":…,"t":…,"l":"…"},…]}
//
// and answers it in four steps over one pooled batchState: scan the body as
// it arrives (batchScanner, which takes the compact query object clients
// send in one step), resolve every query with each distinct constraint
// parsed once per serving generation (resolve), answer, and send the reply
// from one buffer (appendReply). A batched index probe costs ~100 ns, so
// everything here is held to "no allocation per query, nor per request for
// a constraint already seen", and TestBatchSteadyStateAllocs counts what the
// whole of serveBatch allocates.

// batchQueryResult is one slot of the POST /batch reply; Error (and its
// machine-readable Code) is set — and Reachable false — when that query
// failed validation.
type batchQueryResult struct {
	Reachable bool   `json:"reachable"`
	Error     string `json:"error,omitempty"`
	Code      string `json:"code,omitempty"`
}

// The reply is assembled from these pieces; together they spell what
// encoding/json writes for
//
//	struct {
//		Results []batchQueryResult `json:"results"`
//		Count   int                `json:"count"`
//		Cached  int                `json:"cached"`
//		Micros  float64            `json:"micros"`
//	}
//
// through an Encoder, which is what the endpoint has always sent.
var (
	slotTrue  = []byte(`{"reachable":true}`)
	slotFalse = []byte(`{"reachable":false}`)
)

const replyHead = `{"results":[`

// The ways a body is refused before any query is looked at. They carry no
// wire code, as encoding/json's errors for the same bodies never did.
var (
	errBatchSyntax    = errors.New("not the JSON of a batch request")
	errBatchField     = errors.New("unknown field")
	errBatchTrailing  = errors.New("data after the request object")
	errBatchComposite = errors.New("s and t take a number or a string, not an object or an array")
	errBatchTooMany   = errors.New("too many queries")
)

// errBatchSegments rejects a constraint that parses but is not the class
// Index.QueryBatch answers.
var errBatchSegments = errors.New("l: batch queries need a single L+ segment; use GET /query for multi-segment expressions")

// batchSlot is one decoded query: its s, t and l tokens, unquoted, as
// sub-slices of the request body (a token that held an escape or a
// non-ASCII byte is its own allocation).
type batchSlot struct{ s, t, l []byte }

var (
	requestKeys = [][]byte{[]byte("workers"), []byte("queries")}
	queryKeys   = [][]byte{[]byte("s"), []byte("t"), []byte("l")}
)

// batchScanner decodes a request body in one pass, pulling it from src as
// the scan advances, so a body that is refused part-way — malformed, or
// past the query limit — is never read to its end. It accepts exactly what
// encoding/json with DisallowUnknownFields decoded into
//
//	struct {
//		Workers int `json:"workers,omitempty"`
//		Queries []struct {
//			S, T vertexToken // a number's text, or a string unquoted
//			L    string
//		} `json:"queries"`
//	}
//
// with the same results, down to folded and repeated keys (FuzzDecodeBatch
// holds the two together), except that bytes after the object and a
// composite s or t are refused.
type batchScanner struct {
	src  io.Reader // the unread rest of the body; nil once it is drained
	b    []byte    // the body read so far
	i    int       // scan offset into b; where the scan stopped, on an error
	rerr error     // what ended src, when not io.EOF
	key  []byte    // the key errBatchField refused
}

// avail reports whether b[i] exists, reading on when the buffer is used up.
func (d *batchScanner) avail() bool { return d.i < len(d.b) || d.fill() }

// fill reads from src until b[i] exists or src is drained.
func (d *batchScanner) fill() bool {
	for d.i == len(d.b) {
		if d.src == nil {
			return false
		}
		if len(d.b) == cap(d.b) {
			d.b = slices.Grow(d.b, 4096) // pooled body buffer: reaches the size of the largest body once
		}
		n, err := d.src.Read(d.b[len(d.b):cap(d.b)])
		d.b = d.b[:len(d.b)+n]
		if err != nil {
			d.src = nil
			if err != io.EOF {
				d.rerr = err
			}
		}
	}
	return true
}

// token skips whitespace and returns the byte that follows without
// consuming it; 0 stands for the end of the body, and for any byte the
// caller will refuse anyway.
func (d *batchScanner) token() byte {
	if d.i < len(d.b) && d.b[d.i] > ' ' {
		return d.b[d.i] // compact JSON: nothing to skip
	}
	return d.skipSpace()
}

// skipSpace is token when there is whitespace, or nothing buffered, at b[i].
func (d *batchScanner) skipSpace() byte {
	for d.avail() {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// word consumes w, a literal's spelling.
func (d *batchScanner) word(w string) bool {
	for k := 0; k < len(w); k++ {
		if !d.avail() || d.b[d.i] != w[k] {
			return false
		}
		d.i++
	}
	return true
}

// element steps to the next element of a list closed by end. It reports
// false once it has consumed end; after a comma it leaves whatever follows
// for the element's own scan to accept or refuse.
func (d *batchScanner) element(first bool, end byte) (bool, error) {
	switch c := d.token(); {
	case c == end:
		d.i++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.i++
		return true, nil
	}
	return false, errBatchSyntax
}

// str scans the string whose opening quote is at b[i] and returns its
// contents. Plain ASCII comes back as a sub-slice of the body; anything
// with an escape or a byte past 0x7f goes through json.Unmarshal, so escape
// handling and the U+FFFD replacement of invalid UTF-8 stay encoding/json's.
func (d *batchScanner) str() ([]byte, error) {
	d.i++
	start, plain := d.i, true
	for d.avail() {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if plain {
				return d.b[start : d.i-1], nil
			}
			var s string
			if json.Unmarshal(d.b[start-1:d.i], &s) != nil { // escape slow path
				return nil, errBatchSyntax
			}
			return []byte(s), nil // escape slow path
		case c == '\\':
			// Whatever is escaped cannot close the string; json.Unmarshal
			// judges whether it is an escape at all.
			plain = false
			if d.i++; !d.avail() {
				return nil, errBatchSyntax
			}
		case c < ' ':
			return nil, errBatchSyntax
		case c >= utf8.RuneSelf:
			plain = false
		}
		d.i++
	}
	return nil, errBatchSyntax
}

// digits consumes a run of digits and returns its length.
func (d *batchScanner) digits() int {
	n := 0
	for d.avail() && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
		n++
	}
	return n
}

// number scans the JSON number that starts at b[i] and returns its text.
func (d *batchScanner) number() ([]byte, error) {
	start := d.i
	if d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case !d.avail():
		return nil, errBatchSyntax
	case d.b[d.i] == '0':
		d.i++
	case d.digits() == 0:
		return nil, errBatchSyntax
	}
	if d.avail() && d.b[d.i] == '.' {
		d.i++
		if d.digits() == 0 {
			return nil, errBatchSyntax
		}
	}
	if d.avail() && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.avail() && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			return nil, errBatchSyntax
		}
	}
	return d.b[start:d.i], nil
}

// vertexText scans the value of "s" or "t": a string, or the text of a
// number or a literal (`null` included), which the resolver then treats as
// a name like any other.
func (d *batchScanner) vertexText() ([]byte, error) {
	c := d.token()
	start := d.i
	switch {
	case c == '"':
		return d.str()
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case c == 't' && d.word("true"), c == 'f' && d.word("false"), c == 'n' && d.word("null"):
		return d.b[start:d.i], nil
	case c == '{' || c == '[':
		return nil, errBatchComposite
	}
	return nil, errBatchSyntax
}

// field scans an object key and its colon and returns the key's index in
// names: an exact match first, then a case-folded one, as encoding/json
// picks a struct field.
func (d *batchScanner) field(names [][]byte) (int, error) {
	if d.token() != '"' {
		return 0, errBatchSyntax
	}
	key, err := d.str()
	if err != nil {
		return 0, err
	}
	if d.token() != ':' {
		return 0, errBatchSyntax
	}
	d.i++
	for i, name := range names {
		if bytes.Equal(key, name) {
			return i, nil
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, name) {
			return i, nil
		}
	}
	d.key = key
	return 0, errBatchField
}

// decode scans the whole body into slots[:0] and returns the request's
// worker count and its queries. It stops with errBatchTooMany at query
// limit+1 without scanning it.
func (d *batchScanner) decode(slots []batchSlot, limit int) (workers int, queries []batchSlot, err error) {
	// slots[:len(slots)] are the slots this request has written and
	// slots[:n] the queries of the last "queries" value. They differ only
	// for a repeated key: encoding/json decodes the later array into the
	// slice the earlier one left, so slot i starts from its earlier fields,
	// until a null or an empty array drops the slice.
	slots = slots[:0]
	n := 0
	switch d.token() {
	case 'n': // null is the zero request
		if !d.word("null") {
			return 0, nil, errBatchSyntax
		}
	case '{':
		d.i++
		for first := true; ; first = false {
			if more, err := d.element(first, '}'); err != nil {
				return 0, nil, err
			} else if !more {
				break
			}
			f, err := d.field(requestKeys)
			if err != nil {
				return 0, nil, err
			}
			c := d.token()
			switch {
			case c == 'n': // null leaves workers alone and empties queries
				if !d.word("null") {
					return 0, nil, errBatchSyntax
				}
				if f == 1 {
					slots, n = slots[:0], 0
				}
			case f == 0 && (c == '-' || '0' <= c && c <= '9'):
				text, err := d.number()
				if err != nil {
					return 0, nil, err
				}
				w, err := strconv.ParseInt(string(text), 10, 64) // once per request; a number with a fraction or an exponent is refused, as a Go int refuses it
				if err != nil {
					return 0, nil, errBatchSyntax
				}
				workers = int(w)
			case f == 1 && c == '[':
				d.i++
				if slots, n, err = d.queries(slots, limit); err != nil {
					return 0, nil, err
				}
			default:
				return 0, nil, errBatchSyntax
			}
		}
	default:
		return 0, nil, errBatchSyntax
	}
	if d.token(); d.avail() {
		return 0, nil, errBatchTrailing
	}
	return workers, slots[:n], nil
}

// queries scans the elements of a "queries" array, whose '[' is consumed,
// over slots, and returns the written slots and the array's length.
func (d *batchScanner) queries(slots []batchSlot, limit int) ([]batchSlot, int, error) {
	n := 0
	for first := true; ; first = false {
		if more, err := d.element(first, ']'); err != nil {
			return nil, 0, err
		} else if !more {
			break
		}
		if n == limit {
			return nil, 0, errBatchTooMany
		}
		if n == len(slots) {
			slots = append(slots, batchSlot{}) // pooled slots: reach the size of the largest batch once
		}
		switch d.token() {
		case 'n': // a null element leaves its slot as it is
			if !d.word("null") {
				return nil, 0, errBatchSyntax
			}
		case '{':
			d.i++
			if err := d.query(&slots[n]); err != nil {
				return nil, 0, err
			}
		default:
			return nil, 0, errBatchSyntax
		}
		n++
	}
	if n == 0 {
		slots = slots[:0]
	}
	return slots, n, nil
}

// query scans one query object, whose '{' is consumed, into q: the spelling
// clients send in one step, anything else key by key.
func (d *batchScanner) query(q *batchSlot) error {
	if d.quick(q) {
		return nil
	}
	for first := true; ; first = false {
		if more, err := d.element(first, '}'); err != nil || !more {
			return err
		}
		f, err := d.field(queryKeys)
		if err != nil {
			return err
		}
		switch f {
		case 0:
			q.s, err = d.vertexText()
		case 1:
			q.t, err = d.vertexText()
		default:
			switch d.token() {
			case '"':
				q.l, err = d.str()
			case 'n': // null leaves l alone
				if !d.word("null") {
					err = errBatchSyntax
				}
			default:
				err = errBatchSyntax
			}
		}
		if err != nil {
			return err
		}
	}
}

// quick scans the one spelling clients send for a query object,
//
//	{"s":<digits>,"t":<digits>,"l":"<plain ASCII>"}
//
// compact, its keys lower-case and in that order, out of the bytes already
// buffered past the consumed '{'. A digit run is taken only where number
// would take it whole: no sign, no leading zero, and the literal that must
// follow rules out a fraction or an exponent. l stops at the first '"',
// '\\', control or non-ASCII byte. On any mismatch, or when the object runs
// past the buffer, it consumes nothing and reports false, and query's
// general loop scans the object instead.
func (d *batchScanner) quick(q *batchSlot) bool {
	s, b, ok := cutDigits(d.b[d.i:], `"s":`)
	if !ok {
		return false
	}
	t, b, ok := cutDigits(b, `,"t":`)
	if !ok || !hasLiteral(b, `,"l":"`) {
		return false
	}
	b = b[len(`,"l":"`):]
	n := 0
	for n < len(b) && ' ' <= b[n] && b[n] < utf8.RuneSelf && b[n] != '"' && b[n] != '\\' {
		n++
	}
	if !hasLiteral(b[n:], `"}`) {
		return false
	}
	q.s, q.t, q.l = s, t, b[:n]
	d.i = len(d.b) - len(b) + n + len(`"}`)
	return true
}

// cutDigits matches key at the front of b and then the digits of an
// unsigned JSON integer, and returns the digits and what follows them.
func cutDigits(b []byte, key string) (digits, rest []byte, ok bool) {
	if !hasLiteral(b, key) {
		return nil, nil, false
	}
	b = b[len(key):]
	n := 0
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	if n == 0 || n > 1 && b[0] == '0' {
		return nil, nil, false
	}
	return b[:n], b[n:], true
}

func hasLiteral(b []byte, lit string) bool {
	return len(b) >= len(lit) && string(b[:len(lit)]) == lit
}

// batchConstraint is what one distinct constraint text came to on one
// generation: the labels of its single L+ segment and whether they are in
// the index's query class, or the reply slot every query carrying it gets.
type batchConstraint struct {
	seq     labelseq.Seq
	inClass bool
	fail    []byte
}

// batchState is everything one /batch request needs, pooled whole so a
// steady stream of batches allocates per request, and per distinct
// constraint per generation, never per query.
type batchState struct {
	scan  batchScanner
	slots []batchSlot

	// constraints holds, by constraint text, what each text came to on the
	// generation whose uid is owner; tableBytes roughly sizes it.
	constraints map[string]batchConstraint
	owner       uint64
	tableBytes  int

	queries []core.BatchQuery // the queries that resolved, in slot order
	results []core.BatchResult
	out     [][]byte // per slot: its reply bytes; nil while its query is pending
	reply   []byte
}

var batchStates = sync.Pool{New: func() any {
	return &batchState{constraints: make(map[string]batchConstraint)}
}}

// batchKeepBytes is the largest body or reply buffer a state may take back
// to the pool; one oversized request must not pin its buffers for good.
const batchKeepBytes = 1 << 20

// batchTableBytes bounds the constraint table: an entry counts its text,
// its rendered failure and 64 bytes of upkeep, and the table starts over
// once past the bound, so constraint texts nobody repeats cannot grow it.
const batchTableBytes = 64 << 10

// serving points the constraint table at st, emptying it when it was filled
// on another generation: the same text may name other labels there, or none.
func (bs *batchState) serving(st *state) {
	if bs.owner != st.uid {
		clear(bs.constraints)
		bs.owner, bs.tableBytes = st.uid, 0
	}
}

func (bs *batchState) release() {
	if cap(bs.scan.b) <= batchKeepBytes && cap(bs.reply) <= batchKeepBytes {
		batchStates.Put(bs)
	}
}

// failSlot renders the reply slot of a query that failed with err.
func failSlot(err error) []byte {
	// Marshal cannot fail on two strings and a bool.
	b, _ := json.Marshal(batchQueryResult{Error: err.Error(), Code: errorCode(err)})
	return b
}

// vertexOf resolves a vertex token of /batch (bytes of the body) or /query
// (a piece of the query string): decimal digits naming a vertex of the graph
// where they lie, everything else — names, signs, ids out of range and
// their errors — through state.vertex.
func vertexOf[T string | []byte](st *state, tok T) (graph.Vertex, error) {
	if 0 < len(tok) && len(tok) <= 9 {
		id := 0
		for i := 0; i < len(tok); i++ {
			c := tok[i]
			if c < '0' || c > '9' {
				id = -1
				break
			}
			id = id*10 + int(c-'0')
		}
		if 0 <= id && id < st.g.NumVertices() {
			return graph.Vertex(id), nil
		}
	}
	return st.vertex(string(tok))
}

// constraint parses text on its first appearance on the generation the
// table serves and hands the same outcome — labels or rendered error — to
// every later one.
func (bs *batchState) constraint(st *state, text []byte) batchConstraint {
	if c, ok := bs.constraints[string(text)]; ok {
		return c
	}
	var c batchConstraint
	switch e, err := st.parseExpr(string(text)); { // intern miss: once per distinct constraint
	case err != nil:
		c.fail = failSlot(fmt.Errorf("l: %w", err))
	case len(e.Segments) != 1 || !e.Segments[0].Plus:
		c.fail = failSlot(errBatchSegments)
	default:
		c.seq = e.Segments[0].Labels
		c.inClass = st.ix.InClass(c.seq)
	}
	if bs.tableBytes > batchTableBytes {
		clear(bs.constraints)
		bs.tableBytes = 0
	}
	bs.tableBytes += len(text) + len(c.fail) + 64
	bs.constraints[string(text)] = c
	return c
}

// resolve turns slot i into index terms and whether its constraint is in
// the index's class, or into the reply slot saying why not: s is checked
// first, then t, then l, and the first failure is the one reported.
func (bs *batchState) resolve(st *state, i int) (q core.BatchQuery, inClass bool, fail []byte) {
	slot := &bs.slots[i]
	var err error
	if q.S, err = vertexOf(st, slot.s); err != nil {
		return q, false, failSlot(fmt.Errorf("s: %w", err))
	}
	if q.T, err = vertexOf(st, slot.t); err != nil {
		return q, false, failSlot(fmt.Errorf("t: %w", err))
	}
	c := bs.constraint(st, slot.l)
	q.L = c.seq
	return q, c.inClass, c.fail
}

// answer fills out[i] for a query that was answered: the literal for its
// answer, or the slot of the error the index raised.
func (bs *batchState) answer(i int, reachable bool, err error) {
	switch {
	case err != nil:
		bs.out[i] = failSlot(err)
	case reachable:
		bs.out[i] = slotTrue
	default:
		bs.out[i] = slotFalse
	}
}

// appendReply joins the slots into bs.reply.
func (bs *batchState) appendReply(micros float64) []byte {
	size := len(replyHead) + replyTailMax
	for _, slot := range bs.out {
		size += len(slot) + 1
	}
	b := slices.Grow(bs.reply[:0], size)[:size] // pooled reply buffer: reaches the size of the largest reply once
	at := copy(b, replyHead)
	for i, slot := range bs.out {
		if i > 0 {
			b[at] = ','
			at++
		}
		at += copy(b[at:], slot)
	}
	bs.reply = appendReplyTail(b[:at], len(bs.out), micros) // appends into the capacity reserved above
	return bs.reply
}

// replyTailMax bounds what appendReplyTail writes: 33 bytes of keys and
// punctuation, an int of at most 20, and a float of at most 24.
const replyTailMax = 128

func appendReplyTail(b []byte, count int, micros float64) []byte {
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	// "cached" counted result-cache hits; the field stays so that clients
	// decoding it keep working.
	b = append(b, `,"cached":0`...)
	return appendMicros(b, micros)
}

func (s *Server) handleBatch(st *state, w http.ResponseWriter, r *http.Request) bool {
	// Same pre-compute capture as /query: every per-query answer below is
	// computed at or after this point, so the floor holds for all of them.
	st.replHeaders(w.Header())
	limitBody(w, r)

	bs := batchStates.Get().(*batchState)
	defer bs.release()
	return s.serveBatch(st, bs, w, r)
}

// batchWorkers is the worker count of a request that asked for requested:
// GOMAXPROCS, which a request may lower and never raise.
func batchWorkers(requested int) int {
	limit := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > limit {
		return limit
	}
	return requested
}

// serveBatch is handleBatch on one generation, with bs as its scratch.
func (s *Server) serveBatch(st *state, bs *batchState, w http.ResponseWriter, r *http.Request) bool {
	bs.scan = batchScanner{src: r.Body, b: bs.scan.b[:0]}
	workers, slots, err := bs.scan.decode(bs.slots, DefaultMaxBatch)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(bs.scan.rerr, &tooLarge):
		return writeErr(w, http.StatusRequestEntityTooLarge, bs.scan.rerr)
	case bs.scan.rerr != nil:
		return writeError(w, http.StatusBadRequest, "read request: %v", bs.scan.rerr)
	case err == errBatchTooMany:
		return writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds the limit of %d queries", DefaultMaxBatch)
	case err == errBatchField:
		return writeError(w, http.StatusBadRequest, "decode request: unknown field %q", bs.scan.key)
	case err != nil:
		return writeError(w, http.StatusBadRequest, "decode request: %v (byte %d)", err, bs.scan.i)
	case len(slots) == 0:
		return writeError(w, http.StatusBadRequest, "empty batch")
	}
	bs.slots = slots
	s.batchQueries.Add(int64(len(slots)))
	workers = batchWorkers(workers)
	bs.serving(st)

	start := time.Now()
	bs.out = slices.Grow(bs.out[:0], len(slots))[:len(slots)]
	// A query in the index's class is answered the way /query answers it
	// while journal edges are pending: base index, then the overlay search,
	// under the request's context. Every other query that resolved goes to
	// the base index in one sub-batch: exact while the journal is empty —
	// checking that is a valid linearization point — and, on any
	// generation, the same refusal for a constraint outside the class.
	pending := st.delta != nil && st.delta.JournalLen() > 0
	bs.queries = bs.queries[:0]
	for i := range slots {
		q, inClass, fail := bs.resolve(st, i)
		switch {
		case fail != nil:
			bs.out[i] = fail
		case pending && inClass:
			reachable, err := st.computeSeq(r.Context(), q.S, q.T, q.L)
			bs.answer(i, reachable, err)
		default:
			bs.out[i] = nil
			bs.queries = append(bs.queries, q)
		}
	}
	bs.results = st.ix.QueryBatchIntoCtx(r.Context(), bs.queries, workers, bs.results)
	next := 0
	for i, slot := range bs.out {
		if slot == nil {
			res := bs.results[next]
			bs.answer(i, res.Reachable, res.Err)
			next++
		}
	}
	sendJSON(w, bs.appendReply(float64(time.Since(start).Nanoseconds())/1e3))
	return true
}
