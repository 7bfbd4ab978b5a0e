package rdf

// Bulk loading: cold-start construction of a sealed graph in one
// interning pass plus one compaction. The incremental path (NewGraph +
// Add) grows an overlay's six map indexes insert by insert, only for
// the first Freeze to throw them away; a GraphBuilder never builds
// them — it interns, deduplicates and accumulates the insertion-order
// slice, then a single counting pass sizes the occurrence table and
// one freezeGraph call lays out the CSR arenas at their exact final
// size.

// GraphBuilder accumulates ground triples for a bulk load. Add order
// is the insertion order of the resulting graph, exactly as if the
// triples had been Added to a fresh Graph. The zero value is not
// usable; call NewGraphBuilder.
type GraphBuilder struct {
	dict *Dict
	set  map[IDTriple]struct{} // dedup: the triples of all
	all  []IDTriple
}

// NewGraphBuilder returns a builder pre-sized for about sizeHint
// triples (a hint, not a cap; zero is fine).
func NewGraphBuilder(sizeHint int) *GraphBuilder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &GraphBuilder{
		dict: NewDict(),
		set:  make(map[IDTriple]struct{}, sizeHint),
		all:  make([]IDTriple, 0, sizeHint),
	}
}

// Add inserts a ground triple; it panics on variables, like Graph.Add.
func (b *GraphBuilder) Add(t Triple) {
	if !t.Ground() {
		panic("rdf: cannot add non-ground triple " + t.String() + " to a graph")
	}
	b.AddTriple(t.S.Value, t.P.Value, t.O.Value)
}

// AddTriple inserts the ground triple (s, p, o).
func (b *GraphBuilder) AddTriple(s, p, o string) {
	t := IDTriple{b.dict.InternIRI(s), b.dict.InternIRI(p), b.dict.InternIRI(o)}
	if _, ok := b.set[t]; ok {
		return
	}
	b.set[t] = struct{}{}
	b.all = append(b.all, t)
}

// Len returns the number of (distinct) triples added so far.
func (b *GraphBuilder) Len() int { return len(b.all) }

// Graph compacts the accumulated triples into a frozen graph: one
// counting pass for the occurrence table and dom(G), then the CSR
// freeze. The builder must not be used afterwards.
func (b *GraphBuilder) Graph() *Graph {
	return sealEncoded(b.dict, b.all, 0)
}

// Sharded compacts the accumulated triples directly into a sharded
// graph with n shards (n ≥ 1, like Graph.Shard): the same counting
// pass as Graph, then one partition pass and a per-shard CSR freeze —
// no intermediate single-arena frozen view is ever built. The builder
// must not be used afterwards. The result is identical to Graph()
// followed by Shard(n): same triples, same dictionary IDs, same
// insertion order.
func (b *GraphBuilder) Sharded(n int) *Graph {
	if n < 1 {
		panic("rdf: GraphBuilder.Sharded: shard count must be ≥ 1")
	}
	return sealEncoded(b.dict, b.all, n)
}

// sealEncoded builds a graph over d and the insertion-ordered,
// deduplicated triple slice all: a counting pass sizes the occurrence
// table and dom(G), then the base is sealed frozen (shards == 0) or
// sharded with the given shard count.
func sealEncoded(d *Dict, all []IDTriple, shards int) *Graph {
	g := &Graph{dict: d, all: all, occ: make([]int32, d.NumIRIs())}
	for _, t := range all {
		for _, id := range t {
			if g.occ[id] == 0 {
				g.domSize++
			}
			g.occ[id]++
		}
	}
	if shards > 0 {
		g.shd = shardGraph(g, shards)
	} else {
		g.frz = freezeGraph(g)
	}
	return g
}

// GraphFromEncoded seals a graph directly from pre-encoded triples:
// d is the dictionary that interned them and all is the
// insertion-order triple slice, already deduplicated, every position
// an interned IRI ID. Ownership of both passes to the graph. shards
// selects the backend: n ≤ 1 compacts into the single-arena frozen
// view, n > 1 into a sharded CSR with n shards. This is the seam the
// parallel ingest pipeline (internal/ingest) lands on after its
// remap/dedup pass — the result is indistinguishable from feeding the
// same triples through a GraphBuilder.
func GraphFromEncoded(d *Dict, all []IDTriple, shards int) *Graph {
	if shards <= 1 {
		shards = 0
	}
	return sealEncoded(d, all, shards)
}

// GraphFromTriples bulk-loads ground triples into a frozen graph. It
// is equivalent to GraphOf(ts...).Freeze() — same triples, same
// dictionary IDs, same insertion order — but never builds the overlay
// indexes, so cold load is one pass plus one compaction.
func GraphFromTriples(ts []Triple) *Graph {
	b := NewGraphBuilder(len(ts))
	for _, t := range ts {
		b.Add(t)
	}
	return b.Graph()
}

// GraphFromTriplesSharded bulk-loads ground triples into a sharded
// graph with n shards. It is equivalent to GraphOf(ts...).Shard(n) —
// same triples, same dictionary IDs, same insertion order — but
// compacts straight into the per-shard CSR views without ever building
// the overlay indexes.
func GraphFromTriplesSharded(ts []Triple, n int) *Graph {
	b := NewGraphBuilder(len(ts))
	for _, t := range ts {
		b.Add(t)
	}
	return b.Sharded(n)
}
