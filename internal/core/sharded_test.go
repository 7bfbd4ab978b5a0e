package core_test

// Cross-validation of the sharded storage backend at the enumeration
// layer, over the full Parallel(n) × Shard(m) cross product: the row
// stream of a compiled forest must be byte-identical — content and
// order — to the sequential stream over the unsharded overlay-only
// graph, for every worker count and every shard count, on randomized
// well-designed forests. Run under -race in CI, this doubles as the
// race check for the shard-grouped worker scheduling of RowsParallel.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// collectParallel materialises the RowsParallel stream of a compiled
// forest as cloned rows.
func collectParallel(f ptree.Forest, g *rdf.Graph, workers int) []rdf.Row {
	var out []rdf.Row
	core.CompileForest(f, g).RowsParallel(context.Background(), workers, func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

func TestParallelTimesShardCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	grid := []int{1, 2, 4}
	tried, used := 0, 0
	for used < 60 && tried < 5000 {
		tried++
		p := randPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatalf("case %d: wdpf: %v", used, err)
		}
		gm := randData(rng)
		want := collectRows(f, gm) // sequential, unsharded: the pinned stream
		for _, m := range grid {
			gs := gm.Clone().Shard(m)
			for _, n := range grid {
				got := collectParallel(f, gs, n)
				if len(got) != len(want) {
					t.Fatalf("case %d (%s): Parallel(%d)×Shard(%d): %d rows, want %d",
						used, sparql.Format(p), n, m, len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("case %d (%s): Parallel(%d)×Shard(%d): row %d: %v, want %v",
							used, sparql.Format(p), n, m, i, got[i], want[i])
					}
				}
			}
		}
	}
	if used < 30 {
		t.Fatalf("generator starved: only %d well-designed patterns in %d tries", used, tried)
	}
}

// Early termination through the parallel merge must behave identically
// on sharded and unsharded graphs: a Limit-style prefix of the stream
// is a prefix of the sequential unsharded stream.
func TestParallelShardPrefixTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tried, used := 0, 0
	for used < 20 && tried < 3000 {
		tried++
		p := randPattern(rng, 3)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatal(err)
		}
		gm := randData(rng)
		want := collectRows(f, gm)
		if len(want) < 3 {
			continue
		}
		used++
		gs := gm.Clone().Shard(3)
		limit := 1 + rng.Intn(len(want)-1)
		var got []rdf.Row
		core.CompileForest(f, gs).RowsParallel(context.Background(), 4, func(r rdf.Row) bool {
			got = append(got, r.Clone())
			return len(got) < limit
		})
		if len(got) != limit {
			t.Fatalf("case %d: early stop yielded %d rows, want %d", used, len(got), limit)
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("case %d: prefix row %d diverges", used, i)
			}
		}
	}
}

// Decision procedures agree on sharded graphs, mirroring the frozen
// agreement test: wdEVAL sees the same graph through every backend.
func TestShardedDecisionAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tried, used := 0, 0
	for used < 25 && tried < 3000 {
		tried++
		p := randPattern(rng, 2)
		if !sparql.IsWellDesigned(p) {
			continue
		}
		used++
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatal(err)
		}
		gm := randData(rng)
		gs := gm.Clone().Shard(2 + used%3)
		probes := append(sparql.Eval(p, gm).Slice(),
			rdf.Mapping{"x": "a"}, rdf.Mapping{"x": "a", "y": "b"}, rdf.Mapping{})
		for _, mu := range probes {
			if core.EvalNaive(f, gm, mu) != core.EvalNaive(f, gs, mu) {
				t.Fatalf("case %d: EvalNaive disagrees on %v", used, mu)
			}
			if core.EvalPebble(1, f, gm, mu) != core.EvalPebble(1, f, gs, mu) {
				t.Fatalf("case %d: EvalPebble disagrees on %v", used, mu)
			}
		}
	}
}
