// Differential-suite instantiations for the storage shapes,
// plus unit tests for the sharded backend's own machinery: the
// partition, the order-preserving sequence-number merge, and the
// shard lifecycle.
package rdf_test

import (
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// The overlay-only backend: GraphOf writes every triple into the
// overlay of an empty frozen base.
func TestBackendSuiteMap(t *testing.T) {
	backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
		return rdf.GraphOf(ts...)
	})
}

// The frozen CSR backend, through both construction paths: bulk load
// and incremental construction + Freeze.
func TestBackendSuiteFrozenBulk(t *testing.T) {
	backendtest.RunBackendSuite(t, rdf.GraphFromTriples)
}

func TestBackendSuiteFrozenIncremental(t *testing.T) {
	backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
		return rdf.GraphOf(ts...).Freeze()
	})
}

// The sharded backend at the canonical shard counts (1: the degenerate
// single-shard partition, 2: the smallest real merge, 7: more shards
// than distinct predicates in every generated workload, so many shards
// hold sparse or empty ranges), through both construction paths.
func TestBackendSuiteSharded(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		n := n
		t.Run(backendtest.SuiteName("bulk", n), func(t *testing.T) {
			backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
				return rdf.GraphFromTriplesSharded(ts, n)
			})
		})
		t.Run(backendtest.SuiteName("reseal", n), func(t *testing.T) {
			backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
				// The frozen → sharded re-seal path (no map rebuild).
				return rdf.GraphFromTriples(ts).Shard(n)
			})
		})
	}
}

// AllID is the direct witness of the k-way merge: it must reconstruct
// the exact global insertion order from the per-shard streams.
func TestShardedAllIDReconstructsInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		g := gen.Random(16, 60, 3, rng.Int63())
		for _, n := range []int{1, 2, 3, 5, 8} {
			s := g.Clone().Shard(n)
			sg := s.Shards()
			if sg == nil || sg.NumShards() != n {
				t.Fatalf("trial %d: Shards()=%v after Shard(%d)", trial, sg, n)
			}
			if !slices.Equal(sg.AllID(), g.TriplesID()) {
				t.Fatalf("trial %d: AllID with %d shards does not reconstruct insertion order", trial, n)
			}
			total := 0
			for i := 0; i < n; i++ {
				total += sg.ShardLen(i)
			}
			if total != g.Len() {
				t.Fatalf("trial %d: shard lengths sum to %d, want %d", trial, total, g.Len())
			}
		}
	}
}

// The partition is by subject: every triple lands in the shard its
// subject hashes to, and ShardOf agrees between Graph and ShardedGraph.
func TestShardedPartitionBySubject(t *testing.T) {
	g := gen.Random(16, 60, 3, 77).Shard(4)
	sg := g.Shards()
	for _, id := range g.TriplesID() {
		if g.ShardOf(id) != sg.ShardOf(id[0]) {
			t.Fatalf("ShardOf disagrees for %v", id)
		}
	}
	// Subject-bound candidate lists alias shard storage; a triple and
	// its subject must be found in the named shard.
	for _, id := range g.TriplesID() {
		pat := rdf.IDTriple{id[0], rdf.VarID(0), rdf.VarID(1)}
		found := false
		for _, c := range g.CandidatesID(pat) {
			if c == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("subject-bound candidates of %v missing the triple", id)
		}
	}
}

// Shard lifecycle: idempotence at the same count, re-partition at a
// different count, interplay with Freeze, writes on a sharded base,
// and the unusable shard counts panic.
func TestShardLifecycle(t *testing.T) {
	g := gen.Random(12, 40, 3, 5)
	g.Shard(3)
	if !g.Sharded() || g.HasOverlay() || g.ShardCount() != 3 {
		t.Fatalf("Shard(3): sharded=%v overlay=%v count=%d", g.Sharded(), g.HasOverlay(), g.ShardCount())
	}
	sg := g.Shards()
	if g.Shard(3).Shards() != sg {
		t.Fatal("Shard with the same count must be a no-op")
	}
	if g.Shard(5).ShardCount() != 5 {
		t.Fatal("Shard with a different count must re-partition")
	}
	g.Freeze()
	if g.Sharded() || g.ShardCount() != 1 {
		t.Fatal("Freeze on a sharded graph must re-seal single-arena")
	}
	g.Shard(2)
	if !g.Sharded() || g.ShardCount() != 2 {
		t.Fatal("Shard on a frozen graph must replace the frozen view")
	}
	n := g.Len()
	g.AddTriple("added-s", "added-p", "added-o")
	if g.Len() != n+1 || !g.Contains(rdf.T(rdf.IRI("added-s"), rdf.IRI("added-p"), rdf.IRI("added-o"))) {
		t.Fatal("write to a sharded graph lost the triple")
	}
	g.AddTriple("added-s", "added-p", "added-o")
	if g.Len() != n+1 {
		t.Fatal("duplicate insert on a sharded graph")
	}
	c := g.Shard(2).Clone()
	if !c.Sharded() || c.ShardCount() != 2 || !slices.Equal(c.TriplesID(), g.TriplesID()) {
		t.Fatal("clone of a sharded graph must be sharded and state-identical")
	}
	c.AddTriple("clone-s", "clone-p", "clone-o")
	if c.Len() != g.Len()+1 || !g.Sharded() {
		t.Fatal("sharded clone is not independent of its source")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Shard(0) must panic")
		}
	}()
	g.Shard(0)
}

// A sharded empty graph and a shard count far above the subject count
// (all-empty shards except a few) answer correctly.
func TestShardDegenerateShapes(t *testing.T) {
	if g := rdf.NewGraph().Shard(4); g.Len() != 0 || g.ContainsID(rdf.IDTriple{0, 0, 0}) {
		t.Fatal("empty sharded graph misbehaves")
	}
	g := rdf.GraphOf(
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
	).Shard(64)
	pat, ok := g.EncodePattern(rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("y")))
	if !ok || g.MatchCountID(pat) != 2 || len(g.MatchID(pat)) != 2 {
		t.Fatal("64-shard two-triple graph misbehaves")
	}
}
