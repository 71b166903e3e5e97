package server

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// GET /query is answered in one pass: s, t and l are read out of the raw
// query string where it lies (queryParams), resolved, answered, and the reply
// is written into a pooled buffer (appendQueryReply) and sent with one Write.
// The probe behind it costs 100–250 ns, so nothing here builds a map, a
// reflection encoder or a header value it could have kept:
// TestQuerySteadyStateAllocs and TestServeQueryAllocs count what a request
// allocates, and FuzzQueryParams and FuzzQueryReply hold the two functions
// to net/url and encoding/json.

// queryParams returns what url.ParseQuery(raw) followed by Get("s"),
// Get("t") and Get("l") returns: pairs split on '&', a pair holding ';' or a
// bad escape dropped, the first pair left for a key taken, '+' read as a
// space. A key or value without '%' or '+' is a substring of raw.
func queryParams(raw string) (s, t, l string) {
	var vals [3]string
	var have [3]bool
	for found := 0; raw != "" && found < len(vals); {
		pair := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		var err error
		if escaped(key) {
			if key, err = url.QueryUnescape(key); err != nil { // unescape slow path
				continue
			}
		}
		if len(key) != 1 {
			continue
		}
		k := strings.IndexByte("stl", key[0])
		if k < 0 || have[k] {
			continue
		}
		if escaped(val) {
			if val, err = url.QueryUnescape(val); err != nil { // unescape slow path
				continue
			}
		}
		vals[k], have[k] = val, true
		found++
	}
	return vals[0], vals[1], vals[2]
}

// escaped reports whether url.QueryUnescape would change v, or refuse it.
func escaped(v string) bool {
	return strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0
}

// queryReplyFixed is what a reply holds besides its three strings: keys and
// punctuation, and a float64 at its longest (-1.7976931348623157e+308).
const queryReplyFixed = len(`{"s":"","t":"","l":"","reachable":false,"cached":false,"micros":}`+"\n") + 24

// appendQueryReply writes into b[:0] the reply encoding/json's Encoder writes
// for
//
//	struct {
//		S, T, L   string  `json:"s"`, "t", "l"
//		Reachable bool    `json:"reachable"`
//		Cached    bool    `json:"cached"`
//		Micros    float64 `json:"micros"`
//	}
//
// with Cached false — the field outlived the result cache so that clients
// decoding it keep working. s, t and l are echoed as the client sent them.
func appendQueryReply(b []byte, s, t, l string, reachable bool, micros float64) []byte {
	// A byte of input is at most six of output: \u00XX, or the \ufffd that
	// stands for one that is not UTF-8.
	size := queryReplyFixed + 6*(len(s)+len(t)+len(l))
	b = slices.Grow(b[:0], size)[:size] // pooled reply buffer: reaches the size of the largest reply once
	at := copy(b, `{"s":`)
	at = putJSONString(b, at, s)
	at += copy(b[at:], `,"t":`)
	at = putJSONString(b, at, t)
	at += copy(b[at:], `,"l":`)
	at = putJSONString(b, at, l)
	if reachable {
		at += copy(b[at:], `,"reachable":true,"cached":false`)
	} else {
		at += copy(b[at:], `,"reachable":false,"cached":false`)
	}
	return appendMicros(b[:at], micros) // appends into the capacity reserved above
}

const hexDigits = "0123456789abcdef"

// putJSONString writes s at b[at:] as encoding/json quotes a string with
// HTML escaping on — <, > and & as \u00XX, U+2028 and U+2029 escaped, a byte
// that is not UTF-8 as \ufffd — and returns the offset after it. b has room.
func putJSONString(b []byte, at int, s string) int {
	b[at] = '"'
	at++
	start := 0 // s[start:i] is plain and not yet copied
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				at += copy(b[at:], s[start:i])
				at += copy(b[at:], `\ufffd`)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				at += copy(b[at:], s[start:i])
				at += copy(b[at:], `\u202`)
				b[at] = hexDigits[r&0xf]
				at++
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		at += copy(b[at:], s[start:i])
		short := byte(0)
		switch c {
		case '"', '\\':
			short = c
		case '\b':
			short = 'b'
		case '\f':
			short = 'f'
		case '\n':
			short = 'n'
		case '\r':
			short = 'r'
		case '\t':
			short = 't'
		}
		if short != 0 {
			b[at], b[at+1] = '\\', short
			at += 2
		} else {
			at += copy(b[at:], `\u00`)
			b[at], b[at+1] = hexDigits[c>>4], hexDigits[c&0xf]
			at += 2
		}
		i++
		start = i
	}
	at += copy(b[at:], s[start:])
	b[at] = '"'
	return at + 1
}

// appendMicros ends a reply: the micros field, printed as encoding/json
// prints a float64 (ES6 number-to-string: exponent form below 1e-6 and from
// 1e21, its exponent unpadded), then the closing brace and the Encoder's
// newline.
func appendMicros(b []byte, micros float64) []byte {
	b = append(b, `,"micros":`...)
	format := byte('f')
	if abs := math.Abs(micros); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, micros, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return append(b, "}\n"...)
}

// queryReplies pools reply buffers; queryKeepBytes is the largest one that
// goes back, so one request echoing a megabyte of l does not pin it.
var queryReplies = sync.Pool{New: func() any { return new([]byte) }}

const queryKeepBytes = 4 << 10

var jsonContentType = []string{"application/json"}

// sendJSON sends body, a complete JSON reply, with status 200 and one Write.
func sendJSON(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	// The status line is out; a failed write leaves the client a short body.
	_, _ = w.Write(body)
}

func (s *Server) handleQuery(st *state, w http.ResponseWriter, r *http.Request) bool {
	sTok, tTok, lTok := queryParams(r.URL.RawQuery)
	if sTok == "" || tTok == "" || lTok == "" {
		return writeError(w, http.StatusBadRequest, "missing parameter: s, t, and l are all required")
	}
	src, err := vertexOf(st, sTok)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("s: %w", err))
	}
	dst, err := vertexOf(st, tTok)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("t: %w", err))
	}
	e, err := st.parseExpr(lTok)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("l: %w", err))
	}

	start := time.Now()
	// Coordinates are captured before the answer is computed, so the seq
	// header is a floor the answer provably reflects (inserts are
	// monotone: later edges can only add reachability the claim omits).
	st.replHeaders(w.Header())
	reachable, err := st.answerExpr(r.Context(), src, dst, e)
	if err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, err)
	}
	buf := queryReplies.Get().(*[]byte)
	*buf = appendQueryReply(*buf, sTok, tTok, lTok, reachable, float64(time.Since(start).Nanoseconds())/1e3)
	sendJSON(w, *buf)
	if cap(*buf) <= queryKeepBytes {
		queryReplies.Put(buf)
	}
	return true
}
