package wdsparql_test

// One testing.B benchmark per experiment of DESIGN.md. The bench
// targets mirror the wdbench tables: run
//
//	go test -bench=. -benchmem
//
// and compare against the recorded BENCH_<n>.json series.
// Sub-benchmarks carry the swept parameter in their name (k for query
// families, n for data sizes). This file is an external test package
// so it can exercise internal/bench, which itself builds on the public
// engine API.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wdsparql"
	"wdsparql/internal/bench"
	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/hom"
	"wdsparql/internal/ingest"
	"wdsparql/internal/pebble"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/reduction"
)

// BenchmarkE1CoreTreewidth measures ctw computation on the Figure 1
// t-graphs (core computation + exact treewidth).
func BenchmarkE1CoreTreewidth(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8} {
		s := gen.ExampleS(k)
		sp := gen.ExampleSPrime(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := core.CTW(s); got != k-1 {
					b.Fatalf("ctw(S)=%d", got)
				}
				if got := core.CTW(sp); got != 1 {
					b.Fatalf("ctw(S')=%d", got)
				}
			}
		})
	}
}

// BenchmarkE2DominationWidth measures dw(F_k) (subtree enumeration,
// GtG construction, domination search).
func BenchmarkE2DominationWidth(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		f := gen.Fk(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := core.DominationWidth(f); got != 1 {
					b.Fatalf("dw=%d", got)
				}
			}
		})
	}
}

// BenchmarkE3BoundedDW is the headline frontier benchmark: F_k
// evaluation on adversarial Turán data. The naive series grows
// exponentially in k; the pebble series stays polynomial.
func BenchmarkE3BoundedDW(b *testing.B) {
	const n = 24
	for _, k := range []int{2, 3, 4, 5} {
		f := gen.Fk(k)
		mu := gen.FkMu()
		g := gen.FkData(k, n, false, false)
		b.Run(fmt.Sprintf("naive/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !core.EvalNaive(f, g, mu) {
					b.Fatal("expected acceptance")
				}
			}
		})
		b.Run(fmt.Sprintf("pebble/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !core.EvalPebble(1, f, g, mu) {
					b.Fatal("expected acceptance")
				}
			}
		})
	}
}

// BenchmarkE4BranchTreewidth measures the T'_k family: width
// computation and evaluation.
func BenchmarkE4BranchTreewidth(b *testing.B) {
	const n = 24
	for _, k := range []int{2, 4, 6} {
		tk := gen.TkPrime(k)
		f := ptree.Forest{tk}
		g := gen.TkPrimeData(n, k)
		mu := rdf.Mapping{"y": "b"}
		b.Run(fmt.Sprintf("bw/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := core.BranchTreewidth(tk); got != 1 {
					b.Fatalf("bw=%d", got)
				}
			}
		})
		b.Run(fmt.Sprintf("eval-pebble/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EvalPebble(1, f, g, mu)
			}
		})
		b.Run(fmt.Sprintf("eval-naive/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EvalNaive(f, g, mu)
			}
		})
	}
}

// BenchmarkE5CliqueReduction measures the Theorem 2 pipeline: instance
// construction plus co-wdEVAL, scaling in |V(H)| for fixed k. Hosts
// are deterministic pseudo-random graphs with edge density 1/2 (the
// regime of the wdbench E5 table).
func BenchmarkE5CliqueReduction(b *testing.B) {
	for _, k := range []int{2, 3} {
		for _, n := range []int{6, 9, 12} {
			h := graphalg.NewUGraph(n)
			rng := rand.New(rand.NewSource(int64(100*k + n)))
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Intn(2) == 0 {
						h.AddEdge(i, j)
					}
				}
			}
			want := graphalg.HasClique(h, k)
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					in, err := reduction.New(k, h)
					if err != nil {
						b.Fatal(err)
					}
					if got := in.SolveCliqueViaEval(); got != want {
						b.Fatalf("verdict %v, oracle %v", got, want)
					}
				}
			})
		}
	}
}

// BenchmarkE6PebbleVsHom measures the pebble test against full
// homomorphism search on K_k queries over clique-free Turán graphs
// (the refutation case, where backtracking explodes).
func BenchmarkE6PebbleVsHom(b *testing.B) {
	const n = 15
	for _, k := range []int{3, 4, 5} {
		pat := hom.NewTGraph(gen.KkTriples(k)...)
		gt := hom.NewGTGraph(pat, nil)
		g := gen.Turan(n, k-1, "r")
		b.Run(fmt.Sprintf("hom/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if hom.Exists(pat, g) {
					b.Fatal("Turán graph has no k-clique")
				}
			}
		})
		b.Run(fmt.Sprintf("pebble2/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pebble.Decide(2, gt, rdf.NewMapping(), g)
			}
		})
	}
}

// BenchmarkE7DataScaling sweeps |G| for the fixed F_3 query.
func BenchmarkE7DataScaling(b *testing.B) {
	const k = 3
	f := gen.Fk(k)
	mu := gen.FkMu()
	for _, n := range []int{12, 24, 48, 96} {
		g := gen.FkData(k, n, false, false)
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EvalNaive(f, g, mu)
			}
		})
		b.Run(fmt.Sprintf("pebble/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EvalPebble(1, f, g, mu)
			}
		})
	}
}

// BenchmarkMatchMappings measures the base-case evaluation ⟦t⟧G on a
// medium random graph, across the pattern shapes that exercise each
// positional index (bound predicate, fully unbound, repeated
// variable). Tracks the dictionary-encoding speedup of the ID-native
// storage layer.
func BenchmarkMatchMappings(b *testing.B) {
	g := gen.Random(256, 4096, 4, 11)
	pats := []rdf.Triple{
		rdf.T(rdf.Var("s"), rdf.IRI("p0"), rdf.Var("o")),
		rdf.T(rdf.Var("s"), rdf.Var("p"), rdf.Var("o")),
		rdf.T(rdf.Var("s"), rdf.IRI("p1"), rdf.Var("s")),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pats {
			benchSink = g.MatchMappings(p)
		}
	}
}

var benchSink []rdf.Mapping

// BenchmarkEvalAll measures the batched evaluation entry point on the
// E8 workload (one candidate mapping per p-edge, F_3 query), loop vs
// EvalAll vs EvalAll with a worker pool.
func BenchmarkEvalAll(b *testing.B) {
	const k, n = 3, 24
	f := gen.Fk(k)
	g := bench.E8Data(k, n)
	root := ptree.NewSubtree(f[0], f[0].Root.ID)
	mus := hom.FindAll(root.Pattern(), g, 0)
	if len(mus) == 0 {
		b.Fatal("no candidate mappings")
	}
	for _, alg := range []core.Algorithm{core.AlgNaive, core.AlgPebble} {
		b.Run(fmt.Sprintf("%s/loop", alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, mu := range mus {
					core.Eval(alg, 1, f, g, mu)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/batch", alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EvalAll(alg, 1, f, g, mus)
			}
		})
		b.Run(fmt.Sprintf("%s/parallel", alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EvalAllParallel(alg, 1, f, g, mus, 4)
			}
		})
	}
}

// BenchmarkE9TopDownEnum measures top-down enumeration of ⟦T⟧G on the
// E9 workload (AND/OPT-dominated tree, Erdős–Rényi data): the string
// pipeline (EnumerateTopDown on map mappings, the pre-row baseline)
// against the compiled row pipeline, sequential and on a worker pool.
// The headline numbers for the enumeration layer: time/op and
// allocs/op of string vs rows in the same run.
func BenchmarkE9TopDownEnum(b *testing.B) {
	tr := bench.E9Tree()
	f := ptree.Forest{tr}
	g := bench.E9Data(128)
	want := core.EnumerateTopDown(tr, g).Len()
	if want == 0 {
		b.Fatal("empty E9 workload")
	}
	b.Run("string", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if core.EnumerateTopDown(tr, g).Len() != want {
				b.Fatal("solution count changed")
			}
		}
	})
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if core.EnumerateTopDownForestID(f, g).Len() != want {
				b.Fatal("solution count changed")
			}
		}
	})
	b.Run("rows-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if core.EnumerateTopDownParallel(f, g, 4).Len() != want {
				b.Fatal("solution count changed")
			}
		}
	})
	// The decode-at-the-boundary shim serving the string signature.
	b.Run("rows-decoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if core.EnumerateTopDownForest(f, g).Len() != want {
				b.Fatal("solution count changed")
			}
		}
	})
}

// BenchmarkE10PreparedVsOneShot measures the prepare/execute split on
// the E9 enumeration workload: the deprecated one-shot Solutions
// (which re-builds an engine and re-compiles the forest against the
// graph on every call) against a PreparedQuery executed repeatedly —
// materialising (All), zero-decode counting (Rows via Count), and a
// first-page fetch (Limit). The headline numbers for the engine layer:
// prepared execution must beat one-shot on repeated-query workloads.
func BenchmarkE10PreparedVsOneShot(b *testing.B) {
	ctx := context.Background()
	p := wdsparql.MustParsePattern(bench.E10PatternText)
	g := bench.E9Data(128)
	q, err := wdsparql.NewEngine(g).Prepare(p)
	if err != nil {
		b.Fatal(err)
	}
	want, err := q.Count(ctx)
	if err != nil || want == 0 {
		b.Fatalf("empty E10 workload: %d, %v", want, err)
	}
	b.Run("oneshot-solutions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			set, err := wdsparql.Solutions(p, g)
			if err != nil || set.Len() != want {
				b.Fatalf("solution count changed: %d, %v", set.Len(), err)
			}
		}
	})
	b.Run("prepared-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			set, err := q.All(ctx)
			if err != nil || set.Len() != want {
				b.Fatalf("solution count changed: %d, %v", set.Len(), err)
			}
		}
	})
	b.Run("prepared-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := q.Count(ctx)
			if err != nil || n != want {
				b.Fatalf("solution count changed: %d, %v", n, err)
			}
		}
	})
	b.Run("prepared-first-page", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := q.Count(ctx, wdsparql.Limit(10))
			if err != nil || n != 10 {
				b.Fatalf("page size changed: %d, %v", n, err)
			}
		}
	})
}

// BenchmarkE11FrozenBackend measures the frozen CSR storage backend
// against the overlay-only graph (every triple in the overlay of an
// empty base) on identical triple sets (the E9 Erdős–Rényi shape at
// |G| = 65536): cold load (incremental overlay construction vs
// counting-pass bulk load), MatchCountID probe
// throughput over the full index-shape mix with full key diversity,
// MatchID materialisation (the frozen backend returns zero-copy arena
// ranges), and top-down enumeration. The headline numbers for the
// storage layer: frozen count/match must beat the overlay with fewer
// allocs/op.
func BenchmarkE11FrozenBackend(b *testing.B) {
	ts := bench.E11Triples(16384)
	gm := rdf.GraphOf(ts...)
	gf := rdf.GraphFromTriples(ts)
	if gm.Len() != gf.Len() {
		b.Fatalf("backend twins diverge: %d vs %d", gm.Len(), gf.Len())
	}
	countProbes := bench.E11Probes(gm, 0)
	matchProbes := bench.E11Probes(gm, 512)
	b.Run("coldload/map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rdf.GraphOf(ts...).Len() != gm.Len() {
				b.Fatal("load changed")
			}
		}
	})
	b.Run("coldload/bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rdf.GraphFromTriples(ts).Len() != gm.Len() {
				b.Fatal("load changed")
			}
		}
	})
	want := 0
	for _, p := range countProbes {
		want += gm.MatchCountID(p)
	}
	for _, tc := range []struct {
		name string
		g    *rdf.Graph
	}{{"count/map", gm}, {"count/frozen", gf}} {
		g := tc.g
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				for _, p := range countProbes {
					n += g.MatchCountID(p)
				}
				if n != want {
					b.Fatalf("count drift: %d != %d", n, want)
				}
			}
		})
	}
	for _, tc := range []struct {
		name string
		g    *rdf.Graph
	}{{"match/map", gm}, {"match/frozen", gf}} {
		g := tc.g
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				for _, p := range matchProbes {
					n += len(g.MatchID(p))
				}
				if n == 0 {
					b.Fatal("empty match workload")
				}
			}
		})
	}
	f := ptree.Forest{bench.E9Tree()}
	rows := core.EnumerateTopDownForestID(f, gm).Len()
	for _, tc := range []struct {
		name string
		g    *rdf.Graph
	}{{"enum/map", gm}, {"enum/frozen", gf}} {
		g := tc.g
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if core.EnumerateTopDownForestID(f, g).Len() != rows {
					b.Fatal("solution count changed")
				}
			}
		})
	}
}

// BenchmarkE12ShardedBackend measures the sharded storage backend
// against the frozen backend on identical triple sets (the E9 shape at
// |G| = 65536), per shard count: bulk load into shards, MatchCountID
// over the full index-shape mix (cross-shard counts are sums, no
// merge), MatchID over the solver-realistic materialisation mix
// (subject-bound, two-key and ground probes — the shapes the
// fail-first loop materialises), the cross-shard single-key merge on
// its own (the disclosed price of the partition), and top-down
// enumeration. The headline numbers for the sharding layer: selective
// probes at parity with frozen, streams byte-identical.
func BenchmarkE12ShardedBackend(b *testing.B) {
	ts := bench.E11Triples(16384)
	gf := rdf.GraphFromTriples(ts)
	countProbes := bench.E11Probes(gf, 0)
	matchProbes := bench.E12MatchProbes(gf, 512)
	mergeProbes := bench.E12MergeProbes(gf, 128)
	wantCount := 0
	for _, p := range countProbes {
		wantCount += gf.MatchCountID(p)
	}
	f := ptree.Forest{bench.E9Tree()}
	rows := core.EnumerateTopDownForestID(f, gf).Len()
	// Cold load first, before the probe twins exist: a heap full of
	// retained backends would tax the load loop with GC scan work that
	// has nothing to do with loading.
	b.Run("coldload/sharded-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rdf.GraphFromTriplesSharded(ts, 4).Len() != gf.Len() {
				b.Fatal("load changed")
			}
		}
	})
	graphs := []struct {
		name string
		g    *rdf.Graph
	}{{"frozen", gf}}
	for _, m := range []int{1, 2, 4} {
		graphs = append(graphs, struct {
			name string
			g    *rdf.Graph
		}{fmt.Sprintf("sharded-%d", m), rdf.GraphFromTriplesSharded(ts, m)})
	}
	for _, tc := range graphs {
		g := tc.g
		b.Run("count/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				for _, p := range countProbes {
					n += g.MatchCountID(p)
				}
				if n != wantCount {
					b.Fatalf("count drift: %d != %d", n, wantCount)
				}
			}
		})
		b.Run("match/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				for _, p := range matchProbes {
					n += len(g.MatchID(p))
				}
				if n == 0 {
					b.Fatal("empty match workload")
				}
			}
		})
		b.Run("merge/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				for _, p := range mergeProbes {
					n += len(g.MatchID(p))
				}
				if n == 0 {
					b.Fatal("empty merge workload")
				}
			}
		})
		b.Run("enum/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if core.EnumerateTopDownForestID(f, g).Len() != rows {
					b.Fatal("solution count changed")
				}
			}
		})
	}
}

// BenchmarkMicroHomSolver measures the raw homomorphism solver on
// path queries (ablation baseline for the join-ordering heuristic).
func BenchmarkMicroHomSolver(b *testing.B) {
	g := gen.Random(64, 512, 2, 7)
	var pats []rdf.Triple
	for i := 0; i < 4; i++ {
		pats = append(pats, rdf.T(rdf.Var(fmt.Sprintf("v%d", i)), rdf.IRI("p0"), rdf.Var(fmt.Sprintf("v%d", i+1))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hom.Exists(pats, g)
	}
}

// BenchmarkMicroPebbleClosure measures one pebble-game closure on a
// medium instance (ablation baseline for the deletion propagation).
func BenchmarkMicroPebbleClosure(b *testing.B) {
	pat := hom.NewTGraph(gen.KkTriples(4)...)
	gt := hom.NewGTGraph(pat, nil)
	g := gen.Turan(18, 3, "r")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pebble.Decide(2, gt, rdf.NewMapping(), g)
	}
}

// BenchmarkE13Serving measures the serving layer end to end: real HTTP
// requests against a wdserve endpoint streaming the E10 workload
// (request/* sub-benchmarks, one GET + full decode per iteration, per
// engine mode), and an overload cell (64-client herd against a gate of
// 8 with a short bounded queue) whose reported metrics are the point:
// shed% — the fraction refused with a fast 503 — and p99_ms, the tail
// latency of the requests actually served, bounded by gate depth ×
// service time instead of growing with the herd.
func BenchmarkE13Serving(b *testing.B) {
	ts := bench.E9Data(128).Triples()
	wantRows := func(eng *wdsparql.Engine, text string, opts ...wdsparql.ExecOption) int {
		q, err := eng.PrepareText(text)
		if err != nil {
			b.Fatal(err)
		}
		n, err := q.Count(context.Background(), opts...)
		if err != nil || n == 0 {
			b.Fatalf("empty serving workload: %d, %v", n, err)
		}
		return n
	}
	modes := []struct {
		name   string
		graph  *rdf.Graph
		params map[string][]string
	}{
		{"sequential", rdf.GraphFromTriples(ts), nil},
		{"parallel-4", rdf.GraphFromTriples(ts), map[string][]string{"workers": {"4"}}},
		{"sharded-4", rdf.GraphFromTriplesSharded(ts, 4), nil},
	}
	for _, m := range modes {
		eng := wdsparql.NewEngine(m.graph, wdsparql.WithQueryCache(16))
		want := wantRows(eng, bench.E13QueryText, wdsparql.Limit(bench.E13RowLimit))
		b.Run("request/"+m.name, func(b *testing.B) {
			base, stop, err := bench.E13StartServer(eng, 8, 16, time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cell := bench.E13Load(base, 1, 1, m.params, want)
				if cell.OK != 1 || !cell.Agree {
					b.Fatalf("bad response: %+v", cell)
				}
			}
		})
	}
	b.Run("overload", func(b *testing.B) {
		eng := wdsparql.NewEngine(rdf.GraphFromTriples(ts), wdsparql.WithQueryCache(16))
		want := wantRows(eng, bench.E13OverloadQueryText,
			wdsparql.Limit(bench.E13RowLimit), wdsparql.Offset(bench.E13OverloadOffset))
		base, stop, err := bench.E13StartServer(eng, 8, 8, 25*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		defer stop()
		var ok, shed, errs int
		var p99 time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cell := bench.E13Load(base, 64, 1, map[string][]string{
				"query":  {bench.E13OverloadQueryText},
				"offset": {fmt.Sprint(bench.E13OverloadOffset)},
			}, want)
			if !cell.Agree || cell.Errors > 0 {
				b.Fatalf("overload cell disagrees: %+v", cell)
			}
			ok += cell.OK
			shed += cell.Shed
			if p := cell.Percentile(0.99); p > p99 {
				p99 = p
			}
		}
		b.StopTimer()
		if shed == 0 {
			b.Fatal("overload cell shed nothing: admission never engaged")
		}
		b.ReportMetric(float64(shed)/float64(ok+shed+errs)*100, "shed%")
		b.ReportMetric(float64(p99.Milliseconds()), "p99_ms")
	})
}

// BenchmarkE14SnapshotColdStart measures cold start to the first query
// row on the E9 shape at |G| = 65536, per startup path: re-parsing the
// N-Triples text (interning + index rebuild), loading the checksummed
// snapshot image into the heap (read + CRC validation, zero parse),
// and mmapping it (load cost independent of graph size — the pages the
// first query needs fault in on demand). Every iteration is a genuine
// cold start: graph construction, engine, prepare, and one row.
func BenchmarkE14SnapshotColdStart(b *testing.B) {
	g := rdf.GraphFromTriples(bench.E11Triples(16384))
	dir := b.TempDir()
	ntPath := filepath.Join(dir, "g.nt")
	snapPath := filepath.Join(dir, "g.wdsnap")
	f, err := os.Create(ntPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := rdf.WriteGraph(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	if err := g.WriteSnapshot(snapPath); err != nil {
		b.Fatal(err)
	}

	firstRow := func(b *testing.B, g *rdf.Graph) {
		b.Helper()
		q, err := wdsparql.NewEngine(g).PrepareText(bench.E14QueryText)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for range q.Rows(context.Background(), wdsparql.Limit(1)) {
			rows++
		}
		if rows != 1 {
			b.Fatalf("first row not produced: %d", rows)
		}
	}
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(ntPath)
			if err != nil {
				b.Fatal(err)
			}
			g, err := rdf.ReadGraph(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			firstRow(b, g)
		}
	})
	for _, mode := range []rdf.SnapshotMode{rdf.SnapshotHeap, rdf.SnapshotMmap} {
		b.Run("load-"+mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap, err := rdf.LoadSnapshot(snapPath, mode)
				if err != nil {
					b.Fatal(err)
				}
				firstRow(b, snap.Graph())
				snap.Close()
			}
		})
	}
}

// BenchmarkE15Ingest measures the live-data path on the E9 shape at
// |G| = 65536: the parallel streaming ingest pipeline against the
// sequential reader on the same N-Triples bytes (sequential/parallel/
// parallel-sharded), and enumeration with the last tenth of the graph
// in the mutable delta overlay versus fully frozen versus refrozen.
func BenchmarkE15Ingest(b *testing.B) {
	ts := bench.E11Triples(16384)
	var sb []byte
	{
		g := rdf.GraphFromTriples(ts)
		var buf bytes.Buffer
		if err := rdf.WriteGraph(&buf, g); err != nil {
			b.Fatal(err)
		}
		sb = buf.Bytes()
	}

	b.Run("parse-sequential", func(b *testing.B) {
		b.SetBytes(int64(len(sb)))
		for i := 0; i < b.N; i++ {
			if _, err := rdf.ReadGraph(bytes.NewReader(sb)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ingest-w%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(sb)))
			for i := 0; i < b.N; i++ {
				if _, err := ingest.Load(bytes.NewReader(sb), ingest.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("ingest-sharded3", func(b *testing.B) {
		b.SetBytes(int64(len(sb)))
		for i := 0; i < b.N; i++ {
			if _, err := ingest.Load(bytes.NewReader(sb), ingest.Options{Workers: 4, Shards: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})

	cut := len(ts) - len(ts)/10
	frozen := wdsparql.NewEngine(rdf.GraphFromTriples(ts))
	overlay := wdsparql.NewEngine(rdf.GraphFromTriples(ts[:cut])).ApplyDelta(ts[cut:])
	refrozen := overlay.Refreeze()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		eng  *wdsparql.Engine
	}{{"enum-frozen", frozen}, {"enum-overlay10pct", overlay}, {"enum-refrozen", refrozen}} {
		b.Run(tc.name, func(b *testing.B) {
			q, err := tc.eng.PrepareText(bench.E15QueryText)
			if err != nil {
				b.Fatal(err)
			}
			want := -1
			for i := 0; i < b.N; i++ {
				n, err := q.Count(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if want == -1 {
					want = n
				} else if n != want {
					b.Fatalf("row count changed: %d vs %d", n, want)
				}
			}
			b.ReportMetric(float64(want), "rows")
		})
	}

	b.Run("apply-delta-batch1000", func(b *testing.B) {
		base := wdsparql.NewEngine(rdf.GraphFromTriples(ts[:cut]))
		batch := ts[cut:min(cut+1000, len(ts))]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if e := base.ApplyDelta(batch); e.OverlayLen() == 0 {
				b.Fatal("delta not applied")
			}
		}
	})
}

// BenchmarkE16Planner measures the compile-time query planner through
// the public engine on the E9/E10 workload: the ordered enumeration
// (planner on runs the complete-dead-detection planned mode, stream
// byte-identical to planner off) and the order-free Count (planner on
// runs strict plan-following). The wdbench E16 table carries the
// search-node and probe counters; this benchmark tracks the wall-time
// side under `go test -bench`.
func BenchmarkE16Planner(b *testing.B) {
	g := bench.E9Data(4096)
	ctx := context.Background()
	for _, cfg := range []struct {
		name string
		opts []wdsparql.Option
	}{
		{"on", nil},
		{"off", []wdsparql.Option{wdsparql.WithPlanner(false)}},
	} {
		q, err := wdsparql.NewEngine(g, cfg.opts...).PrepareText(bench.E10PatternText)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("enum/planner-"+cfg.name, func(b *testing.B) {
			want := -1
			for i := 0; i < b.N; i++ {
				n := 0
				for range q.Rows(ctx) {
					n++
				}
				if want == -1 {
					want = n
				} else if n != want {
					b.Fatalf("row count changed: %d vs %d", n, want)
				}
			}
			b.ReportMetric(float64(want), "rows")
		})
		b.Run("count/planner-"+cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Count(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE17FilterPushdown measures the bind-time filter pushdown
// against all-deferred evaluation through the public engine API: a
// selective equality filter over the E10 optional chain, plain and
// under a projected DISTINCT.
func BenchmarkE17FilterPushdown(b *testing.B) {
	g := bench.E9Data(4096)
	ctx := context.Background()
	hub := bench.E17Hub(g)
	queries := []struct{ name, text string }{
		{"eq-filter", `(` + bench.E10PatternText + ` FILTER ?y = ` + hub + `)`},
		{"sel-distinct", `SELECT DISTINCT ?y WHERE (` + bench.E10PatternText + ` FILTER NOT ?y = ` + hub + `)`},
	}
	for _, w := range queries {
		for _, cfg := range []struct {
			name string
			opts []wdsparql.Option
		}{
			{"on", nil},
			{"off", []wdsparql.Option{wdsparql.WithFilterPushdown(false)}},
		} {
			q, err := wdsparql.NewEngine(g, cfg.opts...).PrepareText(w.text)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(w.name+"/pushdown-"+cfg.name, func(b *testing.B) {
				want := -1
				for i := 0; i < b.N; i++ {
					n := 0
					for range q.Rows(ctx) {
						n++
					}
					if want == -1 {
						want = n
					} else if n != want {
						b.Fatalf("row count changed: %d vs %d", n, want)
					}
				}
				b.ReportMetric(float64(want), "rows")
			})
		}
	}
}
