package rdf_test

import (
	"math/rand"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// splitDelta loads the first half of ts through the sealed bulk path
// and the rest through Add, producing a sealed base plus a live
// overlay. Interning order is unchanged (base triples first, overlay
// triples after), so the dictionary IDs match the backendtest
// contract.
func splitDelta(ts []rdf.Triple, seal func([]rdf.Triple) *rdf.Graph) *rdf.Graph {
	half := len(ts) / 2
	g := seal(ts[:half])
	for _, t := range ts[half:] {
		g.Add(t)
	}
	return g
}

// The overlay on a frozen base: the full differential suite, so every
// read operation merges base and overlay stream-identically to a graph
// built from scratch.
func TestBackendSuiteOverlayFrozen(t *testing.T) {
	backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
		return splitDelta(ts, rdf.GraphFromTriples)
	})
}

// The overlay on a sharded base, across the canonical shard counts:
// cross-shard mergeBySeq followed by the overlay suffix must still
// reconstruct global insertion order.
func TestBackendSuiteOverlaySharded(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		n := n
		t.Run(backendtest.SuiteName("overlay", n), func(t *testing.T) {
			backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
				return splitDelta(ts, func(base []rdf.Triple) *rdf.Graph {
					return rdf.GraphFromTriplesSharded(base, n)
				})
			})
		})
	}
}

// The generation path end to end: base → Fork → Add into the fork
// (forked dictionary, shared base storage) → the fork must pass the
// full suite while the abandoned receiver is left untouched.
func TestBackendSuiteOverlayFork(t *testing.T) {
	backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
		half := len(ts) / 2
		base := rdf.GraphFromTriples(ts[:half])
		g := base.Fork()
		for _, t := range ts[half:] {
			g.Add(t)
		}
		return g
	})
}

// Fork + Compact is the re-freeze: the compacted generation must be
// sealed (no overlay left), keep the base's backend shape, and be
// stream-identical to a graph rebuilt from scratch — while the
// original generation still serves the pre-delta state.
func TestOverlayForkCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		full := gen.Random(14, 70, 3, rng.Int63())
		ts := full.Triples()
		half := len(ts) / 2
		for _, shards := range []int{0, 1, 3} {
			var base *rdf.Graph
			if shards > 0 {
				base = rdf.GraphFromTriplesSharded(ts[:half], shards)
			} else {
				base = rdf.GraphFromTriples(ts[:half])
			}
			baseLen := base.Len()
			g := base.Fork()
			for _, tr := range ts[half:] {
				g.Add(tr)
			}
			g.Compact()
			if g.HasOverlay() || g.OverlayLen() != 0 {
				t.Fatalf("trial %d shards %d: overlay survived Compact", trial, shards)
			}
			if shards > 0 {
				if !g.Sharded() || g.ShardCount() != shards {
					t.Fatalf("trial %d: Compact changed backend shape (want %d shards)", trial, shards)
				}
			} else if g.Sharded() {
				t.Fatalf("trial %d: Compact of a frozen base did not re-freeze", trial)
			}
			ref := rdf.GraphOf(ts...)
			if !backendtest.EqualStreams(ref, g) {
				t.Fatalf("trial %d shards %d: compacted generation diverges from rebuilt graph", trial, shards)
			}
			if base.Len() != baseLen || base.HasOverlay() {
				t.Fatalf("trial %d: Compact of a fork mutated the receiver generation", trial)
			}
			refBase := rdf.GraphOf(ts[:half]...)
			if !backendtest.EqualStreams(refBase, base) {
				t.Fatalf("trial %d shards %d: old generation no longer serves the pre-delta state", trial, shards)
			}
		}
	}
}

// Cloning a graph with a non-empty overlay must deep-copy the overlay:
// posting lists rebuilt, never shared. This is the regression pinned
// by the ingest PR — a shallow copy lets a write to one graph's
// overlay leak into the other's candidate streams.
func TestOverlayCloneDeepCopies(t *testing.T) {
	g := rdf.GraphFromTriples([]rdf.Triple{
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
	})
	g.AddTriple("c", "p", "d")
	cl := g.Clone()
	if cl.OverlayLen() != 1 || !cl.Contains(rdf.T(rdf.IRI("c"), rdf.IRI("p"), rdf.IRI("d"))) {
		t.Fatalf("clone lost the overlay: len=%d", cl.OverlayLen())
	}

	// Writes on either side must stay invisible to the other.
	g.AddTriple("d", "p", "e")
	if cl.Contains(rdf.T(rdf.IRI("d"), rdf.IRI("p"), rdf.IRI("e"))) {
		t.Fatal("overlay write to the original leaked into the clone")
	}
	cl.AddTriple("x", "p", "y")
	if g.Contains(rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.IRI("y"))) {
		t.Fatal("overlay write to the clone leaked into the original")
	}
	if g.Len() != 4 || cl.Len() != 4 {
		t.Fatalf("Len diverged: original %d, clone %d (want 4 and 4)", g.Len(), cl.Len())
	}

	// The clone's merged stream stays insertion-ordered and complete.
	ref := rdf.GraphOf(
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
		rdf.T(rdf.IRI("c"), rdf.IRI("p"), rdf.IRI("d")),
		rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.IRI("y")),
	)
	if !backendtest.EqualStreams(ref, cl) {
		t.Fatal("cloned overlay graph diverges from rebuilt reference")
	}
}

// The overlay write path must dedup against both the base and itself,
// and a re-seal must fold the overlay at its sequence position.
func TestOverlayDedupAndThawFold(t *testing.T) {
	g := rdf.GraphFromTriples([]rdf.Triple{
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
	})
	g.AddTriple("a", "p", "b") // already in base
	g.AddTriple("b", "p", "c")
	g.AddTriple("b", "p", "c") // already in overlay
	if g.OverlayLen() != 1 || g.Len() != 2 {
		t.Fatalf("dedup failed: overlay=%d len=%d", g.OverlayLen(), g.Len())
	}

	g.AddTriple("c", "p", "d")
	ref := rdf.GraphOf(
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
		rdf.T(rdf.IRI("c"), rdf.IRI("p"), rdf.IRI("d")),
	)
	if !backendtest.EqualStreams(ref, g) {
		t.Fatal("overlay graph diverges from rebuilt reference")
	}
	if g.Freeze(); g.HasOverlay() || !backendtest.EqualStreams(ref, g) {
		t.Fatal("re-frozen graph kept the overlay or diverges from rebuilt reference")
	}
}

// A fresh graph is an empty frozen base: writes land in its overlay,
// and Freeze folds them into a base of their own.
func TestOverlayOnEmptyBase(t *testing.T) {
	g := rdf.NewGraph()
	if g.HasOverlay() || g.Sharded() || g.Len() != 0 {
		t.Fatalf("NewGraph: overlay=%v sharded=%v len=%d", g.HasOverlay(), g.Sharded(), g.Len())
	}
	g.Add(rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")))
	if g.OverlayLen() != 1 || g.Len() != 1 {
		t.Fatalf("Add on a fresh graph: overlay=%d len=%d", g.OverlayLen(), g.Len())
	}
	if g.Freeze(); g.HasOverlay() || g.Len() != 1 {
		t.Fatalf("Freeze: overlay=%v len=%d", g.HasOverlay(), g.Len())
	}
}

// A snapshot of an overlay graph must include the overlay: write
// compacts first, and the loaded image equals the rebuilt graph.
func TestOverlaySnapshotCompactsFirst(t *testing.T) {
	ts := []rdf.Triple{
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("q"), rdf.IRI("c")),
		rdf.T(rdf.IRI("c"), rdf.IRI("p"), rdf.IRI("a")),
	}
	base := rdf.GraphFromTriples(ts[:2])
	g := base.Fork()
	g.Add(ts[2])
	path := t.TempDir() + "/ovl.wdsnap"
	if err := g.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap, err := rdf.LoadSnapshot(path, rdf.SnapshotHeap)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	defer snap.Close()
	if !backendtest.EqualStreams(rdf.GraphOf(ts...), snap.Graph()) {
		t.Fatal("snapshot of an overlay graph diverges from rebuilt reference")
	}
}
