// Lifecycle and bulk-load tests specific to the frozen CSR backend.
// The read-API cross-validation lives in the reusable differential
// suite of internal/rdf/backendtest, instantiated for every backend in
// sharded_test.go.
package rdf_test

import (
	"slices"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
)

func sameTriples(a, b []rdf.IDTriple) bool { return slices.Equal(a, b) }

// Freeze is idempotent, writes after a Freeze land in the overlay
// without losing or duplicating triples, and a re-freeze folds them
// in.
func TestFreezeThawLifecycle(t *testing.T) {
	g := gen.Random(12, 40, 3, 99)
	if !g.HasOverlay() || g.OverlayLen() != g.Len() {
		t.Fatal("incremental graph must start as an overlay on an empty base")
	}
	g.Freeze()
	if g.HasOverlay() || g.Sharded() {
		t.Fatal("Freeze must seal")
	}
	g.Freeze() // idempotent
	n := g.Len()
	g.AddTriple("added-s", "added-p", "added-o")
	if g.Len() != n+1 || !g.Contains(rdf.T(rdf.IRI("added-s"), rdf.IRI("added-p"), rdf.IRI("added-o"))) {
		t.Fatal("triple lost across a write")
	}
	g.Freeze()
	if g.HasOverlay() || !g.ContainsID(g.TriplesID()[n]) {
		t.Fatal("re-freeze lost the new triple")
	}
	// Re-adding an existing triple on a frozen graph must not
	// duplicate.
	g.AddTriple("added-s", "added-p", "added-o")
	if g.Len() != n+1 {
		t.Fatal("duplicate insert after a re-freeze")
	}
	// Cloning a frozen graph rebuilds the frozen base directly: the
	// clone is frozen and state-identical, including occurrence
	// counts, and stays independently writable.
	c := g.Clone()
	if c.Sharded() || c.HasOverlay() || !slices.Equal(c.TriplesID(), g.TriplesID()) || c.DomSize() != g.DomSize() {
		t.Fatal("frozen clone lost state")
	}
	for _, id := range g.DomIDs() {
		if c.OccurrencesID(id) != g.OccurrencesID(id) {
			t.Fatalf("frozen clone occurrence count differs for %v", id)
		}
	}
	c.AddTriple("clone-s", "clone-p", "clone-o")
	if c.Len() != g.Len()+1 || g.HasOverlay() {
		t.Fatal("frozen clone is not independent of its source")
	}
}

// Bulk load is equivalent to incremental construction + Freeze: same
// triples, same dictionary IDs, same insertion order — and ReadGraph
// returns a frozen, bulk-loaded graph.
func TestBulkLoadEquivalence(t *testing.T) {
	ts := []rdf.Triple{
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
		rdf.T(rdf.IRI("a"), rdf.IRI("q"), rdf.IRI("c")),
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")), // duplicate
		rdf.T(rdf.IRI("c"), rdf.IRI("q"), rdf.IRI("a")),
	}
	inc := rdf.GraphOf(ts...)
	bulk := rdf.GraphFromTriples(ts)
	if bulk.Sharded() || bulk.HasOverlay() {
		t.Fatal("GraphFromTriples must return a frozen graph")
	}
	if !inc.Equal(bulk) || !bulk.Equal(inc) {
		t.Fatal("bulk and incremental graphs differ")
	}
	if !sameTriples(inc.TriplesID(), bulk.TriplesID()) {
		t.Fatalf("IDs or insertion order differ: %v vs %v", inc.TriplesID(), bulk.TriplesID())
	}
	// The sharded bulk load is equivalent to sealing the same list
	// through Shard — including the dropped duplicate.
	shardedBulk := rdf.GraphFromTriplesSharded(ts, 2)
	if !shardedBulk.Sharded() || shardedBulk.ShardCount() != 2 {
		t.Fatal("GraphFromTriplesSharded must return a sharded graph")
	}
	if !sameTriples(shardedBulk.TriplesID(), inc.TriplesID()) {
		t.Fatal("sharded bulk load changed IDs or order")
	}
	parsed, err := rdf.ParseGraph("a p b .\nb p c .\na q c .\na p b .\nc q a .")
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Sharded() || parsed.HasOverlay() {
		t.Fatal("ReadGraph must return a frozen graph")
	}
	if !sameTriples(parsed.TriplesID(), inc.TriplesID()) {
		t.Fatal("ReadGraph bulk load changed IDs or order")
	}
}
