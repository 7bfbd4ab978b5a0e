package wdsparql

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// Tests of the Engine / PreparedQuery API: the prepared pipeline is
// pinned to the reference implementations (EnumerateTopDownForest and
// the compositional sparql.Eval), the Limit/Offset window is pinned to
// prefix-slicing the full result, cancellation must stop streams (and
// parallel workers) without leaking goroutines, and one PreparedQuery
// must serve concurrent executions (exercised under -race in CI).

// e9Pattern is the enumeration workload of the E9/E10 benchmarks as a
// graph pattern: a root edge with one optional two-step chain and one
// optional attribute arm.
const e9Pattern = `(((?x p0 ?y) OPT ((?y p1 ?z) OPT (?z p2 ?u))) OPT (?y p3 ?w))`

func e9Prepared(t testing.TB, n int) (*Engine, *PreparedQuery, *Graph) {
	t.Helper()
	g := gen.Random(n, 4*n, 4, 7)
	eng := NewEngine(g)
	q, err := eng.Prepare(MustParsePattern(e9Pattern))
	if err != nil {
		t.Fatal(err)
	}
	return eng, q, g
}

// collectSelect drains q.Select into a MappingSet plus an ordered
// slice.
func collectSelect(q *PreparedQuery, ctx context.Context, opts ...ExecOption) (*MappingSet, []Mapping) {
	set := rdf.NewMappingSet()
	var ordered []Mapping
	for mu := range q.Select(ctx, opts...) {
		set.Add(mu)
		ordered = append(ordered, mu)
	}
	return set, ordered
}

func TestEnginePinnedToReferencePipelines(t *testing.T) {
	rng := rand.New(rand.NewSource(2018))
	ctx := context.Background()
	used := 0
	for trial := 0; used < 80 && trial < 4000; trial++ {
		p, ok := gen.RandomWDPattern(rng, gen.PatternOpts{Depth: 2 + trial%2, Union: trial%3 == 0})
		if !ok {
			continue
		}
		used++
		g := gen.Random(4, 8+rng.Intn(10), 2, int64(trial))
		// The generator vocabulary uses predicates p,q and constants
		// a,b; remap the data onto it so patterns actually match.
		data := NewGraph()
		for _, tr := range g.Triples() {
			pd := "p"
			if tr.P.Value == "p1" {
				pd = "q"
			}
			data.AddTriple(tr.S.Value, pd, tr.O.Value)
		}
		eng := NewEngine(data)
		q, err := eng.Prepare(p)
		if err != nil {
			t.Fatalf("prepare %s: %v", sparql.Format(p), err)
		}

		want := core.EnumerateTopDownForest(q.Forest(), data) // reference 1
		ref := sparql.Eval(p, data)                           // reference 2
		if want.Len() != ref.Len() {
			t.Fatalf("references disagree on %s: %d vs %d", sparql.Format(p), want.Len(), ref.Len())
		}

		all, err := q.All(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sel, _ := collectSelect(q, ctx)
		nRows := 0
		for r := range q.Rows(ctx) {
			if got := q.Layout().DecodeRow(data.Dict(), r); !want.Contains(got) {
				t.Fatalf("Rows yielded non-solution %v for %s", got, sparql.Format(p))
			}
			nRows++
		}
		cnt, err := q.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		par, err := q.All(ctx, Parallel(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range []*MappingSet{all, sel, par} {
			if set.Len() != want.Len() {
				t.Fatalf("%s: engine=%d want=%d", sparql.Format(p), set.Len(), want.Len())
			}
			for _, mu := range want.Slice() {
				if !set.Contains(mu) {
					t.Fatalf("%s: missing %v", sparql.Format(p), mu)
				}
			}
		}
		if nRows != want.Len() || cnt != want.Len() {
			t.Fatalf("%s: rows=%d count=%d want=%d", sparql.Format(p), nRows, cnt, want.Len())
		}
	}
	if used < 40 {
		t.Fatalf("too few generated patterns: %d", used)
	}
}

func TestEngineLimitOffsetIsPrefixSlicing(t *testing.T) {
	ctx := context.Background()
	_, q, _ := e9Prepared(t, 48)

	var full []Row
	for r := range q.Rows(ctx) {
		full = append(full, r.Clone())
	}
	if len(full) < 20 {
		t.Fatalf("workload too small: %d rows", len(full))
	}

	rowsEqual := func(a, b Row) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct{ limit, offset int }{
		{0, 0}, {1, 0}, {5, 0}, {5, 3}, {0, 3}, {-1, 7},
		{len(full), 0}, {len(full) + 10, 5}, {3, len(full) + 1},
	} {
		wantStart := min(tc.offset, len(full))
		wantEnd := len(full)
		if tc.limit >= 0 {
			wantEnd = min(wantStart+tc.limit, len(full))
		}
		want := full[wantStart:wantEnd]
		var got []Row
		for r := range q.Rows(ctx, Limit(tc.limit), Offset(tc.offset)) {
			got = append(got, r.Clone())
		}
		if len(got) != len(want) {
			t.Fatalf("limit=%d offset=%d: got %d rows, want %d", tc.limit, tc.offset, len(got), len(want))
		}
		for i := range got {
			if !rowsEqual(got[i], want[i]) {
				t.Fatalf("limit=%d offset=%d: row %d differs", tc.limit, tc.offset, i)
			}
		}
		// Count must see the same window, sequential and parallel.
		for _, opts := range [][]ExecOption{
			{Limit(tc.limit), Offset(tc.offset)},
			{Limit(tc.limit), Offset(tc.offset), Parallel(4)},
		} {
			cnt, err := q.Count(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if cnt != len(want) {
				t.Fatalf("limit=%d offset=%d parallel=%v: count=%d want=%d",
					tc.limit, tc.offset, len(opts) == 3, cnt, len(want))
			}
		}
	}
}

func TestEngineParallelMatchesSequentialOrder(t *testing.T) {
	ctx := context.Background()
	_, q, _ := e9Prepared(t, 64)
	var seq, par []Row
	for r := range q.Rows(ctx) {
		seq = append(seq, r.Clone())
	}
	for r := range q.Rows(ctx, Parallel(4)) {
		par = append(par, r.Clone())
	}
	if len(seq) != len(par) {
		t.Fatalf("sequential %d rows, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("row %d: parallel stream diverges from sequential order", i)
			}
		}
	}
}

// WithShards(n) seals the graph into the sharded backend; the stream
// of every execution tier must be byte-identical to the default frozen
// engine's, sequentially and on a worker pool, for every shard count.
func TestEngineWithShardsMatchesFrozenStream(t *testing.T) {
	ctx := context.Background()
	_, qf, g := e9Prepared(t, 64)
	var want []Row
	for r := range qf.Rows(ctx) {
		want = append(want, r.Clone())
	}
	for _, shards := range []int{1, 2, 4} {
		gs := g.Clone()
		eng := NewEngine(gs, WithShards(shards), WithWorkers(2))
		if shards > 1 && (!gs.Sharded() || gs.ShardCount() != shards) {
			t.Fatalf("WithShards(%d): backend not sharded", shards)
		}
		if shards <= 1 && (gs.Sharded() || gs.HasOverlay()) {
			t.Fatalf("WithShards(%d): expected the frozen default", shards)
		}
		q, err := eng.Prepare(MustParsePattern(e9Pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			var got []Row
			for r := range q.Rows(ctx, Parallel(workers)) {
				got = append(got, r.Clone())
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d workers=%d: %d rows, want %d", shards, workers, len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("shards=%d workers=%d: row %d diverges", shards, workers, i)
					}
				}
			}
		}
		if n, err := q.Count(ctx); err != nil || n != len(want) {
			t.Fatalf("shards=%d: Count=%d err=%v, want %d", shards, n, err, len(want))
		}
	}
	// A graph the caller already sharded keeps its backend: the
	// default seal must not silently re-freeze it single-arena.
	pre := g.Clone().Shard(3)
	NewEngine(pre)
	if !pre.Sharded() || pre.ShardCount() != 3 {
		t.Fatal("NewEngine discarded a caller-sharded backend")
	}
}

func TestEngineCancellationStopsStreams(t *testing.T) {
	_, q, _ := e9Prepared(t, 64)
	total, err := q.Count(context.Background())
	if err != nil || total < 50 {
		t.Fatalf("workload: %d rows, %v", total, err)
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		for range q.Rows(ctx, Parallel(workers)) {
			seen++
			if seen == 3 {
				cancel()
			}
		}
		cancel()
		if seen >= total {
			t.Fatalf("workers=%d: cancellation did not stop the stream (%d of %d rows)", workers, seen, total)
		}
		// The terminal operations must surface the cancellation.
		if _, err := q.Count(ctx, Parallel(workers)); err == nil {
			t.Fatalf("workers=%d: Count on cancelled ctx must fail", workers)
		}
		if _, err := q.All(ctx, Parallel(workers)); err == nil {
			t.Fatalf("workers=%d: All on cancelled ctx must fail", workers)
		}
		if _, err := q.Ask(ctx, Mapping{}); err == nil {
			t.Fatalf("workers=%d: Ask on cancelled ctx must fail", workers)
		}
	}
}

func TestEngineParallelEarlyStopLeaksNoGoroutines(t *testing.T) {
	_, q, _ := e9Prepared(t, 64)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		// Break out of a parallel stream almost immediately: the
		// iterator must wait for its workers before returning.
		for range q.Rows(context.Background(), Parallel(4)) {
			break
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for range q.Rows(ctx, Parallel(4)) {
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after parallel early stops", before, after)
	}
}

func TestEngineConcurrentSelectOnOnePreparedQuery(t *testing.T) {
	ctx := context.Background()
	_, q, g := e9Prepared(t, 48)
	want, err := Solutions(MustParsePattern(e9Pattern), g)
	if err != nil {
		t.Fatal(err)
	}
	const K = 8
	results := make([]*MappingSet, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := []ExecOption{}
			if i%2 == 1 {
				opts = append(opts, Parallel(3))
			}
			set, _ := collectSelect(q, ctx, opts...)
			results[i] = set
			// Interleave the lazily-cached static measures from many
			// goroutines too: they must be computed exactly once, safely.
			_ = q.DominationWidth()
			_ = q.LocalWidth()
			_ = q.CertainVars()
		}(i)
	}
	wg.Wait()
	for i, set := range results {
		if set.Len() != want.Len() {
			t.Fatalf("goroutine %d: %d solutions, want %d", i, set.Len(), want.Len())
		}
		for _, mu := range want.Slice() {
			if !set.Contains(mu) {
				t.Fatalf("goroutine %d: missing %v", i, mu)
			}
		}
	}
}

func TestEngineAskMatchesEnumeration(t *testing.T) {
	ctx := context.Background()
	data := MustParseGraph("a p b .\nb q c .\nd p e .\n")
	p := MustParsePattern(`((?x p ?y) OPT (?y q ?z))`)
	for _, opts := range [][]Option{
		{},
		{WithAlgorithm(AlgPebble), WithPebbleK(1)},
	} {
		eng := NewEngine(data, opts...)
		q, err := eng.Prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		all, err := q.All(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, mu := range all.Slice() {
			ok, err := q.Ask(ctx, mu)
			if err != nil || !ok {
				t.Fatalf("Ask(%v)=%v,%v want member", mu, ok, err)
			}
		}
		for _, mu := range []Mapping{
			{"x": "a", "y": "b"}, // extends, not maximal
			{"x": "zzz", "y": "b"},
		} {
			ok, err := q.Ask(ctx, mu)
			if err != nil || ok {
				t.Fatalf("Ask(%v)=%v,%v want non-member", mu, ok, err)
			}
		}
	}
}

func TestEngineAskRejectsBadPebbleK(t *testing.T) {
	data := MustParseGraph("a p b .\n")
	q, err := NewEngine(data, WithAlgorithm(AlgPebble), WithPebbleK(0)).
		Prepare(MustParsePattern(`(?x p ?y)`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Ask(context.Background(), Mapping{"x": "a", "y": "b"}); err == nil {
		t.Fatal("Ask must reject a pebble engine with k < 1, not panic")
	}
}

func TestEnginePrepareRejectsNonWellDesigned(t *testing.T) {
	notWD := MustParsePattern(`(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?z) AND (?z, r, ?o2)))`)
	if _, err := NewEngine(nil).Prepare(notWD); err == nil {
		t.Fatal("Prepare must reject non-well-designed patterns")
	}
}

func TestEnginePrepareForest(t *testing.T) {
	ctx := context.Background()
	f := gen.Fk(3)
	g := gen.FkData(3, 12, true, false)
	eng := NewEngine(g)
	q := eng.PrepareForest(f)
	if q.Pattern() != nil {
		t.Fatal("forest-prepared query has no pattern")
	}
	want := core.EnumerateTopDownForest(f, g)
	all, err := q.All(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != want.Len() {
		t.Fatalf("All=%d want=%d", all.Len(), want.Len())
	}
	if dw := q.DominationWidth(); dw != core.DominationWidth(f) {
		t.Fatalf("dw=%d", dw)
	}
	if lw := q.LocalWidth(); lw != core.LocalWidth(f) {
		t.Fatalf("lw=%d", lw)
	}
	if len(f) > 1 {
		if _, err := q.BranchTreewidth(); err == nil {
			t.Fatal("bw must be rejected on multi-tree forests")
		}
	}
}

func TestEngineStaticWidthsMatchLegacy(t *testing.T) {
	p := MustParsePattern(`((?x p ?y) OPT (?y q ?z))`)
	q, err := NewEngine(nil).Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	dw, _ := DominationWidth(p)
	bw, _ := BranchTreewidth(p)
	lw, _ := LocalWidth(p)
	cv, _ := CertainVars(p)
	if q.DominationWidth() != dw {
		t.Fatalf("dw: %d vs %d", q.DominationWidth(), dw)
	}
	if qbw, err := q.BranchTreewidth(); err != nil || qbw != bw {
		t.Fatalf("bw: %d,%v vs %d", qbw, err, bw)
	}
	if q.LocalWidth() != lw {
		t.Fatalf("lw: %d vs %d", q.LocalWidth(), lw)
	}
	if len(q.CertainVars()) != len(cv) {
		t.Fatalf("cv: %v vs %v", q.CertainVars(), cv)
	}
}

func TestLegacyShimsShareOnePreparePath(t *testing.T) {
	// A pattern unique to this test so the cache entry is fresh.
	p := MustParsePattern(`((?x legacyShimP ?y) OPT (?y legacyShimQ ?z))`)
	f1, err := ToForest(p)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ToForest(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != 1 || f1[0] != f2[0] {
		t.Fatal("legacy calls must reuse the cached forest, not re-run WDPF")
	}
	// Width and certain-variable shims ride the same analysis.
	if _, err := LocalWidth(p); err != nil {
		t.Fatal(err)
	}
	if _, err := CertainVars(p); err != nil {
		t.Fatal(err)
	}
	q, err := NewEngine(nil).Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	if q.Forest()[0] != f1[0] {
		t.Fatal("Prepare must reuse the shims' cached analysis")
	}
}

func TestEngineSelectStreamsIncrementally(t *testing.T) {
	// Breaking out of Select must not enumerate the remainder: observe
	// via a Limit-free stream on a workload with many solutions, by
	// checking that break-after-one returns promptly relative to a full
	// drain. Rather than time it, pin the contract structurally: a
	// limit-1 Count equals 1 even though the full count is much larger.
	ctx := context.Background()
	_, q, _ := e9Prepared(t, 64)
	full, err := q.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	one, err := q.Count(ctx, Limit(1))
	if err != nil {
		t.Fatal(err)
	}
	if full < 100 || one != 1 {
		t.Fatalf("full=%d one=%d", full, one)
	}
	for mu := range q.Select(ctx) {
		_ = mu
		break // must terminate the underlying enumeration
	}
}

func TestEngineEmptyGraphAndEmptyResult(t *testing.T) {
	ctx := context.Background()
	q, err := NewEngine(nil).Prepare(MustParsePattern(`(?x nosuch ?y)`))
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.Count(ctx)
	if err != nil || n != 0 {
		t.Fatalf("count on empty graph: %d, %v", n, err)
	}
	all, err := q.All(ctx, Parallel(4))
	if err != nil || all.Len() != 0 {
		t.Fatalf("all on empty graph: %d, %v", all.Len(), err)
	}
}

// ExampleEngine documents the prepare-once / stream-many lifecycle.
func ExampleEngine() {
	data := MustParseGraph(`
alice knows bob .
bob knows carol .
alice email alice@example.org .
`)
	engine := NewEngine(data)
	q, err := engine.Prepare(MustParsePattern(`((?p knows ?q) OPT (?p email ?m))`))
	if err != nil {
		panic(err)
	}
	n, _ := q.Count(context.Background())
	fmt.Println(n, "solutions")
	// Output: 2 solutions
}
