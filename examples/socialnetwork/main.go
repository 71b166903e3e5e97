// Social network at scale: generate a Barabási–Albert graph (the model the
// paper uses for skewed real-world-like networks), build the RLC index, race
// it against the online-traversal baselines on a 2-label workload — a
// miniature of the paper's Figure 3 experiment — and then serve the same
// index over HTTP the way rlcserve does, answering single and batch queries.
//
//	go run ./examples/socialnetwork
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	rlc "github.com/g-rpqs/rlc-go"
)

func main() {
	const (
		vertices = 20000
		outDeg   = 5
		labels   = 8
		queries  = 500
	)
	fmt.Printf("generating BA graph: %d vertices, out-degree %d, %d Zipfian labels...\n", vertices, outDeg, labels)
	g, err := rlc.GenerateBA(vertices, outDeg, labels, 42)
	if err != nil {
		log.Fatal(err)
	}
	st := rlc.ComputeGraphStats(g)
	fmt.Printf("graph: %d edges, %d triangles, max in-degree %d\n\n", st.Edges, st.Triangles, st.MaxInDeg)

	start := time.Now()
	ix, err := rlc.BuildIndex(g, rlc.Options{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index built in %v: %d entries, %.2f MB\n\n",
		time.Since(start).Round(time.Millisecond), ix.NumEntries(), float64(ix.SizeBytes())/(1024*1024))

	fmt.Printf("generating %d true + %d false queries (constraints like (follows mentions)+)...\n", queries, queries)
	w, err := rlc.GenerateWorkload(g, rlc.WorkloadOptions{
		NumTrue: queries, NumFalse: queries, ConcatLen: 2, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	race := func(name string, eval func(q rlc.Query) (bool, error)) {
		start := time.Now()
		for _, q := range w.All() {
			got, err := eval(q)
			if err != nil {
				log.Fatal(err)
			}
			if got != q.Expected {
				log.Fatalf("%s answered %v for %v, ground truth %v", name, got, q, q.Expected)
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%-10s %10v total   %8.1f µs/query\n",
			name, elapsed.Round(time.Microsecond), float64(elapsed.Microseconds())/float64(2*queries))
	}

	fmt.Println()
	race("RLC index", func(q rlc.Query) (bool, error) { return ix.Query(q.S, q.T, q.L) })
	race("BiBFS", func(q rlc.Query) (bool, error) { return rlc.EvalBiBFS(g, q.S, q.T, q.L) })
	race("BFS", func(q rlc.Query) (bool, error) { return rlc.EvalBFS(g, q.S, q.T, q.L) })

	fmt.Println("\nall three evaluators agreed on every query (verified against ground truth).")

	serveOverHTTP(ix, w)
	liveIngestion(g, ix, w)
}

// serveOverHTTP stands the index up behind the rlc serving layer on a local
// port and exercises it like an external client: one GET /query per workload
// query, one POST /batch for the whole workload, then a graceful shutdown.
func serveOverHTTP(ix *rlc.Index, w rlc.Workload) {
	srv := rlc.NewServer(ix, rlc.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("\nserving the index over HTTP at %s\n", base)

	queries := w.All()
	start := time.Now()
	for _, q := range queries {
		var resp struct {
			Reachable bool `json:"reachable"`
		}
		u := fmt.Sprintf("%s/query?s=%d&t=%d&l=%s", base, q.S, q.T, url.QueryEscape(exprText(q.L)))
		if err := getJSON(u, &resp); err != nil {
			log.Fatal(err)
		}
		if resp.Reachable != q.Expected {
			log.Fatalf("HTTP answered %v for %v, ground truth %v", resp.Reachable, q, q.Expected)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("GET /query  %d queries: %8v total  %6.1f µs/query\n",
		len(queries), elapsed.Round(time.Microsecond), float64(elapsed.Microseconds())/float64(len(queries)))

	// The same workload as one batch request, fanned over the server's
	// concurrent worker pool.
	var body strings.Builder
	body.WriteString(`{"queries":[`)
	for i, q := range queries {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"s":%d,"t":%d,"l":"%s"}`, q.S, q.T, exprText(q.L))
	}
	body.WriteString(`]}`)
	var batch struct {
		Results []struct {
			Reachable bool   `json:"reachable"`
			Error     string `json:"error"`
		} `json:"results"`
		Micros float64 `json:"micros"`
	}
	resp, err := http.Post(base+"/batch", "application/json", strings.NewReader(body.String()))
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	for i, r := range batch.Results {
		if r.Error != "" || r.Reachable != queries[i].Expected {
			log.Fatalf("batch result %d: got (%v, %q), ground truth %v", i, r.Reachable, r.Error, queries[i].Expected)
		}
	}
	fmt.Printf("POST /batch %d queries in %.0f µs\n", len(batch.Results), batch.Micros)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		log.Fatal(err)
	}
	fmt.Println("server drained and shut down cleanly.")
}

// liveIngestion restarts the same index behind a MUTABLE server and streams
// edges into it over HTTP while querying it over HTTP — the read/write
// epoch pipeline. It asserts exactness the whole way: true answers can
// never regress while edges stream in (the write path is insert-only), a
// sentinel query flips false→true the moment its enabling edges land, and
// every tracked answer survives the background fold-and-rebuild hot swap
// bit for bit.
func liveIngestion(g *rlc.Graph, ix *rlc.Index, w rlc.Workload) {
	dir, err := os.MkdirTemp("", "rlc-fold")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bundle := filepath.Join(dir, "fold.rlcs")

	srv := rlc.NewServer(ix, rlc.ServerOptions{
		Mutable:          true,
		RebuildThreshold: -1, // fold on demand below, so the demo is deterministic
		RebuildPath:      bundle,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("\nlive ingestion: mutable server at %s (folds write %s)\n", base, bundle)

	ask := func(s, t rlc.Vertex, l rlc.Seq) bool {
		var resp struct {
			Reachable bool `json:"reachable"`
		}
		u := fmt.Sprintf("%s/query?s=%d&t=%d&l=%s", base, s, t, url.QueryEscape(exprText(l)))
		if err := getJSON(u, &resp); err != nil {
			log.Fatal(err)
		}
		return resp.Reachable
	}
	post := func(path, body string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			log.Fatalf("POST %s: %d %s", path, resp.StatusCode, b)
		}
		resp.Body.Close()
	}

	// Baseline: every workload answer equals its static ground truth, and a
	// false query becomes the sentinel we will flip.
	queries := w.All()
	before := make([]bool, len(queries))
	sentinel := -1
	for i, q := range queries {
		before[i] = ask(q.S, q.T, q.L)
		if before[i] != q.Expected {
			log.Fatalf("baseline: (%d,%d,%v+) = %v, ground truth %v", q.S, q.T, q.L, before[i], q.Expected)
		}
		if sentinel < 0 && !q.Expected && len(q.L) == 2 {
			sentinel = i
		}
	}
	sq := queries[sentinel]
	if ask(sq.S, sq.T, sq.L) {
		log.Fatal("sentinel must start false")
	}

	// Stream 300 random edges over HTTP from a writer goroutine while this
	// goroutine keeps querying: a TRUE answer must never regress. Nothing is
	// cached, so that rests on the journal alone: inserts only add paths.
	r := rand.New(rand.NewSource(2024))
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		for i := 0; i < 300; i++ {
			s := rlc.Vertex(r.Intn(g.NumVertices()))
			t := rlc.Vertex(r.Intn(g.NumVertices()))
			l := rlc.Label(r.Intn(g.NumLabels()))
			post("/update", fmt.Sprintf(`{"s":%d,"l":%d,"t":%d}`, s, l, t))
		}
	}()
	checks := 0
	for {
		select {
		case <-streamed:
		default:
			i := r.Intn(len(queries))
			q := queries[i]
			got := ask(q.S, q.T, q.L)
			if before[i] && !got {
				log.Fatalf("monotonicity violated mid-stream: (%d,%d,%v+) regressed to false", q.S, q.T, q.L)
			}
			checks++
			continue
		}
		break
	}
	fmt.Printf("streamed 300 edges while answering %d interleaved queries (no true answer regressed)\n", checks)

	// The sentinel's enabling path: S -l[0]-> hub -l[1]-> T makes (l[0] l[1])+
	// hold with one repetition. The answer must flip on the very next query.
	hub := rlc.Vertex((int(sq.S) + 1) % g.NumVertices())
	post("/update", fmt.Sprintf(`{"edges":[{"s":%d,"l":%d,"t":%d},{"s":%d,"l":%d,"t":%d}]}`,
		sq.S, sq.L[0], hub, hub, sq.L[1], sq.T))
	if !ask(sq.S, sq.T, sq.L) {
		log.Fatalf("sentinel (%d,%d,%v+) still false after its enabling edges landed", sq.S, sq.T, sq.L)
	}
	fmt.Printf("sentinel (%d ⇝ %d via %s) flipped false → true immediately after its enabling update\n",
		sq.S, sq.T, exprText(sq.L))

	// Record every answer, fold (rebuild + bundle write + hot swap), and
	// require every answer to survive the swap unchanged.
	preFold := make([]bool, len(queries))
	for i, q := range queries {
		preFold[i] = ask(q.S, q.T, q.L)
	}
	var rb struct {
		Epoch   uint64  `json:"epoch"`
		Folded  int     `json:"folded"`
		Journal int     `json:"journal"`
		Micros  float64 `json:"micros"`
	}
	resp, err := http.Post(base+"/rebuild", "application/json", strings.NewReader("{}"))
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("fold: %d edges rebuilt into epoch %d (journal now %d) in %.0f ms; serving the re-opened bundle\n",
		rb.Folded, rb.Epoch, rb.Journal, rb.Micros/1e3)
	var stats struct {
		Generation uint64 `json:"generation"`
		Mutable    struct {
			Epoch   uint64 `json:"epoch"`
			Journal int    `json:"journal"`
		} `json:"mutable"`
	}
	if err := getJSON(base+"/stats", &stats); err != nil {
		log.Fatal(err)
	}
	if stats.Mutable.Epoch != 1 || stats.Mutable.Journal != 0 || stats.Generation != 2 {
		log.Fatalf("post-fold stats: %+v", stats)
	}
	for i, q := range queries {
		if got := ask(q.S, q.T, q.L); got != preFold[i] {
			log.Fatalf("answer changed across the hot swap: (%d,%d,%v+) %v -> %v", q.S, q.T, q.L, preFold[i], got)
		}
	}
	fmt.Printf("all %d tracked answers identical before and after the hot swap — exactness held across the epoch.\n", len(queries))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		log.Fatal(err)
	}
	srv.Close()
}

// exprText renders a constraint in the expression syntax the server parses.
func exprText(l rlc.Seq) string {
	toks := make([]string, len(l))
	for i, lb := range l {
		toks[i] = fmt.Sprintf("l%d", lb)
	}
	return "(" + strings.Join(toks, " ") + ")+"
}

func getJSON(u string, into any) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
