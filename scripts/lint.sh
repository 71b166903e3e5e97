#!/bin/sh
# lint.sh — run the repo's static gate: the no-//rlc:-directive check, the
# error-sentinel check (every sentinel named in TestErrorCodeTable), the
# one-kernel check (NFA.Step call sites), the no-v1-reader check ("RLCX"),
# the one-builder-one-reader check, the one-harness-per-question check, the
# no-closure-in-the-overlay check, the one-fold-state-machine check, the
# one-decoder-on-/batch check, the one-pass-on-/query check, the
# one-client-stack-in-the-router check, the one-server-stack check, the
# one-way-to-load-a-bundle check, the builder-in-rank-space check, the
# one-index-builder-among-the-binaries check, the one-production-build
# check, the reference-builder-stays-an-oracle check, the one-journal-
# watermark check, then staticcheck and govulncheck when available.
# CI runs this in the lint job; run it locally before sending a change that
# touches the serving or query path.
#
# The greps need nothing beyond a POSIX shell. staticcheck and govulncheck
# are external: when the pinned binary is not already on PATH, the step is
# skipped with a notice rather than failing — the module adds no tool
# dependencies, so offline and hermetic builds stay green. CI installs both
# at the pinned versions below so the gate is always enforced there.
set -eu
cd "$(dirname "$0")/.."

# Pinned versions CI installs; a locally installed different version is
# still run (better than skipping) but the mismatch is called out.
STATICCHECK_VERSION="2025.1"
GOVULNCHECK_VERSION="v1.1.4"

status=0

# One gate per invariant: the no-allocation contract of the read path is
# held by the testing.AllocsPerRun tests (ARCHITECTURE.md names the test for
# each function), not by annotations. An //rlc: comment is a directive
# nothing reads any more, so it would promise a check that never runs.
echo "==> //rlc: directives"
stray=$(grep -rnE --include='*.go' --exclude-dir=.bench_build '(^|[[:space:]])//rlc:' . || true)
if [ -n "$stray" ]; then
	echo "an //rlc: directive is back; nothing checks it — hold the property with a runtime test instead:" >&2
	echo "$stray" >&2
	status=1
fi

# Every wire code has a test: TestErrorCodeTable wraps each sentinel the
# server surfaces and requires its exact code, or lists it as exempt. A
# sentinel declared with errors.New at package level — err... in
# internal/server, Err... in the packages whose errors the server passes
# on — that the table does not name would reach clients without a code.
echo "==> error sentinels missing from TestErrorCodeTable"
table=internal/server/errcode_test.go
tab=$(printf '\t')
decl="(var[[:space:]]+|$tab)"
stray=$({
	grep -HE "^${decl}err[[:alnum:]_]*[[:space:]]*=[[:space:]]*errors\.New\(" internal/server/*.go |
		grep -v '_test\.go:' | sed -E "s/^[^:]*:${decl}([[:alnum:]_]+).*/\2/"
	for pkg in core snapshot dynamic automaton graph labelseq hybrid httpd; do
		grep -HE "^${decl}Err[[:alnum:]_]*[[:space:]]*=[[:space:]]*errors\.New\(" internal/$pkg/*.go |
			grep -v '_test\.go:' | sed -E "s/^[^:]*:${decl}([[:alnum:]_]+).*/$pkg.\2/"
	done
} | while read -r name; do
	grep -qw "$name" "$table" || echo "$name"
done)
if [ -n "$stray" ]; then
	echo "error sentinels that $table does not name; add each to TestErrorCodeTable (and to errorCode, unless exempt):" >&2
	echo "$stray" >&2
	status=1
fi

# One product-search kernel: an automaton is stepped over graph edges only
# by internal/traversal (the kernel plus the BFS/DFS reference loops) and
# internal/engines (the Table V engine simulations). A Step call anywhere
# else is another copy of the frontier loop; route it through traversal.
echo "==> NFA.Step call sites"
stray=$(grep -rnE --include='*.go' --exclude-dir=.bench_build '\.Step(Set)?\(' . |
	grep -vE '^\./internal/(traversal|engines|automaton)/|_test\.go:' || true)
if [ -n "$stray" ]; then
	echo "automaton.NFA is stepped outside internal/traversal, internal/engines and internal/automaton:" >&2
	echo "$stray" >&2
	status=1
fi

# One on-disk format: the v1 index's import-only reader is gone, so its
# magic anywhere in non-test Go is a second reader, or the writer, creeping
# back.
echo "==> v1 magic \"RLCX\" sites"
stray=$(grep -rn --include='*.go' --exclude-dir=.bench_build '"RLCX"' . |
	grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
	echo "the v1 index magic is back:" >&2
	echo "$stray" >&2
	status=1
fi

# One builder, one reader: the speculative parallel build was measured 1.7-2.3x
# slower than Algorithm 2 on every graph and host it ever ran on, and the
# entry-array bundle sections had no writer (CHANGES PR 23). Bring a number
# from benchmark/run.sh before bringing either back.
echo "==> parallel-build and entry-array identifiers"
stray=$(grep -rnE --include='*.go' --exclude-dir=.bench_build --exclude-dir=benchmark \
	'BuildWorkers|RebuildWorkers|runParallelBuild|secEntries' . || true)
if [ -n "$stray" ]; then
	echo "a second builder or a second index reader is back:" >&2
	echo "$stray" >&2
	status=1
fi

# One harness per question: a serving number comes from a stamped
# benchmark/run.sh report, a paper number from rlcbench. The in-process
# serving experiments, their committed BENCH_*.json and the plain 2-hop index
# no experiment used are gone (CHANGES PR 24); bring a workload to
# benchmark/, not a third harness.
echo "==> second serving harness"
stray=$(grep -rnE --include='*.go' --exclude-dir=.bench_build --exclude-dir=benchmark \
	'RunIngest|RunBudget|RunRepl|RunBatch|BuildPlainIndex|internal/plain' . || true)
for f in scripts/bench.sh BENCH_*.json; do
	if [ -e "$f" ]; then
		stray="$stray${stray:+
}$f exists"
	fi
done
if [ -n "$stray" ]; then
	echo "a serving experiment outside benchmark/, its output, or the plain index is back:" >&2
	echo "$stray" >&2
	status=1
fi

# Overlay reads search from both ends: internal/dynamic answers with the
# kernel's BiBFS over its two union sources. A closure driver there is the
# exhaustive one-sided search coming back (a false read then costs the whole
# forward closure); internal/hybrid is where those drivers belong.
echo "==> closure drivers in internal/dynamic"
stray=$(grep -rnE --include='*.go' 'Reachable(From|Into)ManyFunc\(' internal/dynamic |
	grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
	echo "internal/dynamic runs a one-sided closure search; use the evaluator's BiBFSCtx:" >&2
	echo "$stray" >&2
	status=1
fi

# One fold state machine: internal/server/mutable.go folds (rebuildOnce), and
# a dynamic.DeltaGraph is the overlay of one serving generation. A fold
# trigger, a wait for it, its callback, its stats or its threshold in
# internal/dynamic or the facade is the overlay's own background folder
# coming back: a second state machine that every change to folding would
# have to change too. So is any goroutine internal/dynamic starts.
echo "==> fold state machine outside internal/server"
stray=$({
	grep -rnE --include='*.go' 'maybeTriggerFold|foldOnce|Quiesce|OnFold|FoldStats|DefaultRebuildThreshold' internal/dynamic rlc.go
	grep -rnE --include='*.go' '(^|[;{])[[:space:]]*go[[:space:]]+[[:alnum:]_(]' internal/dynamic
} | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
	echo "internal/dynamic folds or starts a goroutine; fold in internal/server/mutable.go instead:" >&2
	echo "$stray" >&2
	status=1
fi

# One decoder on /batch: internal/server/batch.go scans the body itself, so
# that a batch costs no allocation per query (TestBatchSteadyStateAllocs
# holds it to that). A json.Decoder there is the reflection decode — three
# strings and an UnmarshalJSON call per query — coming back as a fallback.
echo "==> json.NewDecoder in internal/server/batch.go"
if stray=$(grep -n 'json\.NewDecoder(' internal/server/batch.go); then
	echo "internal/server/batch.go decodes through encoding/json; extend batchScanner instead:" >&2
	echo "$stray" >&2
	status=1
fi

# One pass on /query: internal/server/query.go reads s, t and l out of the
# raw query string and appends the reply itself (TestQuerySteadyStateAllocs
# counts what is left, two fuzzers hold them to net/url and encoding/json). URL.Query()
# there is the map per request coming back; a json encoder, the reflection
# walk around a 200 ns answer.
echo "==> general-purpose parsers in internal/server/query.go"
if stray=$(grep -nE 'URL\.Query\(\)|json\.NewEncoder\(|json\.Marshal\(' internal/server/query.go); then
	echo "internal/server/query.go parses or renders through a general-purpose package; extend queryParams or appendQueryReply instead:" >&2
	echo "$stray" >&2
	status=1
fi

# One client stack in the router: internal/router talks to its backends
# over its own pooled keep-alive connections (upstream.go), health polls
# included. net/http's client there is the second stack coming back — two
# goroutines and two channel hand-offs per read, which is what made the hop
# cost twice the replica.
echo "==> net/http client in internal/router"
stray=$(grep -nE 'http\.(Client|NewRequest|DefaultTransport|DefaultClient)' internal/router/*.go |
	grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
	echo "internal/router uses net/http's client; send through backend.exchange instead:" >&2
	echo "$stray" >&2
	status=1
fi

# One server stack: the serving binaries and their pprof listeners serve
# through internal/httpd's connection loop. An http.Server is the second
# stack coming back, and with it a background read per request to notice a
# client hanging up: point-hot cost 14.1 us of server CPU per query through
# http.Server against 10.7 through the loop on a 2-vCPU box (CHANGES.md has
# every run). benchmark/ keeps its traced loopback until ROADMAP item 2 moves
# it onto the loop.
echo "==> net/http server outside internal/httpd"
stray=$(grep -rnE --include='*.go' --exclude-dir=.bench_build --exclude-dir=benchmark \
	'http\.(Server\{|Serve\(|ListenAndServe)' . |
	grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
	echo "a net/http server is back; serve through internal/httpd instead:" >&2
	echo "$stray" >&2
	status=1
fi

# One way to load a bundle: snapshot.Open reads the file into the heap, so
# a serving generation stays valid while anything references it and the
# garbage collector retires it. A memory mapping brings back the reference
# counts and the drain that made unmapping safe, and a SIGBUS when the
# served file is truncated in place. benchmark/ is a module of its own.
echo "==> memory-mapped bundles"
stray=$(grep -rnE --include='*.go' --exclude-dir=.bench_build --exclude-dir=benchmark \
	'(syscall|unix)\.M(un)?map' . |
	grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
	echo "a memory mapping is back; read the bundle with snapshot.Open instead:" >&2
	echo "$stray" >&2
	status=1
fi

# The builder runs in access-rank space: newRankCSR relabels the adjacency
# once, and from there every vertex the builder holds is a rank, PR2 is an
# id compare and kernel BFS skips the neighbours PR2 rejects by position in
# a rank-sorted run. A rank lookup anywhere else in builder.go is a vertex
# id leaking back into the search, one cache miss per edge visited.
echo "==> rank lookups in internal/core/builder.go outside newRankCSR"
stray=$(awk '/^func /{fn=$0} /\.rank\[/ && fn !~ /^func newRankCSR\(/ {print FILENAME ":" FNR ": " $0}' internal/core/builder.go)
if [ -n "$stray" ]; then
	echo "internal/core/builder.go reads a rank table outside newRankCSR; keep the builder in rank space:" >&2
	echo "$stray" >&2
	status=1
fi

# One index builder among the binaries: rlcbuild writes the bundle that
# rlcserve, rlccluster, rlcquery and rlcinspect read, and rlcbench times the
# build for the paper's tables. A build anywhere else under cmd/ is a second
# way into a serving process, one that bypasses the bundle every generation
# is.
echo "==> index builds under cmd/ outside rlcbuild and rlcbench"
stray=$(grep -rnE --include='*.go' 'BuildIndex|core\.Build\(' cmd |
	grep -vE '^cmd/(rlcbuild|rlcbench)/' || true)
if [ -n "$stray" ]; then
	echo "a binary other than rlcbuild or rlcbench builds an index; read a bundle written by rlcbuild -o instead:" >&2
	echo "$stray" >&2
	status=1
fi

# One production build: Build runs Algorithm 2 with every pruning rule on,
# and its shortcuts are argued (builder.go, kbs) and tested (the tests hold
# it to BuildReference's bytes) for that one configuration. A rule switch in
# the builder or in core.Options is an ablation branch coming back, one
# every builder change would have to keep byte-identical; switch rules off
# in core.BuildReference (reference.go) instead.
echo "==> pruning switches in the production builder"
switch='(^|[^[:alnum:]_])(Disable[[:alnum:]_]*|Pruning)([^[:alnum:]_]|$)'
stray=$({
	grep -nE "$switch" internal/core/builder.go internal/core/build.go
	awk -v re="$switch" '/^type Options struct/ {on=1} on && $0 ~ re {print FILENAME ":" FNR ": " $0} on && /^}/ {on=0}' internal/core/core.go
} || true)
if [ -n "$stray" ]; then
	echo "the production builder or core.Options has a pruning switch; build an ablation with core.BuildReference:" >&2
	echo "$stray" >&2
	status=1
fi

# The reference builder is an oracle: core.BuildReference is Algorithm 2 as
# the paper states it, many times slower than Build. Tests compare against
# it and the ablation experiment (internal/bench) times it; anything else
# that calls it builds a serving index the slow way.
echo "==> BuildReference calls outside internal/bench and tests"
stray=$(grep -rnE --include='*.go' --exclude-dir=.bench_build 'BuildReference\(' . |
	grep -vE '^\./internal/bench/|_test\.go:|^\./internal/core/reference\.go:[0-9]+:func BuildReference\(' || true)
if [ -n "$stray" ]; then
	echo "core.BuildReference is called outside internal/bench and tests; build with core.Build:" >&2
	echo "$stray" >&2
	status=1
fi

# One journal watermark: the journal's length (seq) is the only position
# replication reads, and an export is journal[from:seq] of one published
# view, whole batches only. The seal merges full segments into the readers'
# sorted lists and is nobody's export boundary; a sealed-prefix export, its
# watermark, or a Seal a caller can force is a second watermark coming back,
# and with it a copy-on-write merge of the whole journal per poll.
echo "==> a second journal watermark"
stray=$(grep -rnE --include='*.go' --exclude-dir=.bench_build \
	'ExportSealed|SealedLen|SealedSeq|func \([[:alnum:]_]+ \*?DeltaGraph\) Seal\(' . |
	grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
	echo "a second journal watermark is back; export with Server.ExportJournal (DeltaGraph.JournalTail) instead:" >&2
	echo "$stray" >&2
	status=1
fi

if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck ./... (pinned: ${STATICCHECK_VERSION})"
	got=$(staticcheck -version 2>/dev/null || true)
	case "$got" in
	*"$STATICCHECK_VERSION"*) ;;
	*) echo "note: staticcheck version is '$got', CI pins ${STATICCHECK_VERSION}" ;;
	esac
	if ! staticcheck ./...; then
		status=1
	fi
else
	echo "==> staticcheck not on PATH; skipping (CI installs honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION})"
fi

if command -v govulncheck >/dev/null 2>&1; then
	echo "==> govulncheck ./... (pinned: ${GOVULNCHECK_VERSION})"
	if ! govulncheck ./...; then
		status=1
	fi
else
	echo "==> govulncheck not on PATH; skipping (CI installs golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION})"
fi

exit $status
