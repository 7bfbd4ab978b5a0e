package rdf

// Overlay: the write layer of every graph. A small map-indexed layer
// stacked on the sealed (frozen or sharded, possibly empty) base, so
// writes never touch the CSR arenas underneath the base's readers.
//
// The design exploits the engine-wide ordering invariant directly.
// Every read path returns triples in global insertion (sequence)
// order, and every overlay triple is inserted after every base triple,
// so overlay sequence numbers form a strict suffix of the global
// sequence: for any posting list, concatenating the base list (already
// seq-ordered, whether it comes from a frozen arena range or a
// cross-shard mergeBySeq) with the overlay's insertion-ordered list IS
// the k-way merge by sequence number. No merge machinery runs on
// reads — the overlay is one more mergeSrc whose sequence range
// happens to start after all others end, collapsing the merge to an
// append.
//
// Derived state follows the same base-plus-delta shape: the base
// occurrence table (g.occ) is never touched — overlay occurrence
// counts live in occDelta and dom(G) growth in domDelta — so a base
// shared between forked generations (see Graph.Fork) stays immutable
// while each generation's overlay grows independently.
//
// Structural invariant: the overlay only ever grows, and g.ovl != nil
// implies it holds at least one triple. Freeze, Shard and Compact fold
// it into a new sealed base and drop it.

// overlay is the write layer. Its six positional posting lists are
// insertion-ordered, which is all the concat-as-merge argument above
// needs.
type overlay struct {
	set map[IDTriple]struct{}
	ts  []IDTriple // overlay insertion order (global seq = len(base.all) + index)

	byS  map[TermID][]IDTriple
	byP  map[TermID][]IDTriple
	byO  map[TermID][]IDTriple
	bySP map[[2]TermID][]IDTriple
	byPO map[[2]TermID][]IDTriple
	bySO map[[2]TermID][]IDTriple

	occDelta map[TermID]int32 // occurrence counts on top of base occ
	domDelta int              // IRIs in dom(G) that the base does not have
}

func newOverlay() *overlay {
	return &overlay{
		set:      map[IDTriple]struct{}{},
		byS:      map[TermID][]IDTriple{},
		byP:      map[TermID][]IDTriple{},
		byO:      map[TermID][]IDTriple{},
		bySP:     map[[2]TermID][]IDTriple{},
		byPO:     map[[2]TermID][]IDTriple{},
		bySO:     map[[2]TermID][]IDTriple{},
		occDelta: map[TermID]int32{},
	}
}

func (o *overlay) index(t IDTriple) {
	o.byS[t[0]] = append(o.byS[t[0]], t)
	o.byP[t[1]] = append(o.byP[t[1]], t)
	o.byO[t[2]] = append(o.byO[t[2]], t)
	o.bySP[[2]TermID{t[0], t[1]}] = append(o.bySP[[2]TermID{t[0], t[1]}], t)
	o.byPO[[2]TermID{t[1], t[2]}] = append(o.byPO[[2]TermID{t[1], t[2]}], t)
	o.bySO[[2]TermID{t[0], t[2]}] = append(o.bySO[[2]TermID{t[0], t[2]}], t)
}

// candidates returns the overlay's posting list for the pattern, in
// overlay insertion order. The caller (Graph.CandidatesID) resolves
// fully-bound patterns through the membership sets instead.
func (o *overlay) candidates(p IDTriple) []IDTriple {
	sB, pB, oB := !p[0].IsVar(), !p[1].IsVar(), !p[2].IsVar()
	switch {
	case sB && pB && oB:
		if _, ok := o.set[p]; ok {
			return []IDTriple{p}
		}
		return nil
	case sB && pB:
		return o.bySP[[2]TermID{p[0], p[1]}]
	case pB && oB:
		return o.byPO[[2]TermID{p[1], p[2]}]
	case sB && oB:
		return o.bySO[[2]TermID{p[0], p[2]}]
	case sB:
		return o.byS[p[0]]
	case pB:
		return o.byP[p[1]]
	case oB:
		return o.byO[p[2]]
	default:
		return o.ts
	}
}

// count returns the number of overlay triples matching a pattern with
// no repeated variables: a posting-list length, never a merge or scan.
func (o *overlay) count(p IDTriple) int {
	if !p[0].IsVar() && !p[1].IsVar() && !p[2].IsVar() {
		if _, ok := o.set[p]; ok {
			return 1
		}
		return 0
	}
	return len(o.candidates(p))
}

// baseContains is membership against the sealed base only, ignoring
// the overlay; the write path uses it to dedup against the base.
func (g *Graph) baseContains(t IDTriple) bool {
	if sg := g.shd; sg != nil {
		return sg.contains(t)
	}
	_, ok := g.frz.contains(t)
	return ok
}

// baseOcc is the base occurrence count for an IRI ID; IDs interned
// after the base was sealed (they live past the end of g.occ) have
// base count zero by construction.
func (g *Graph) baseOcc(id TermID) int32 {
	if int(id) < len(g.occ) {
		return g.occ[id]
	}
	return 0
}

// HasOverlay reports whether the graph carries a non-empty overlay.
func (g *Graph) HasOverlay() bool { return g.ovl != nil }

// OverlayLen returns the number of triples in the overlay write layer.
func (g *Graph) OverlayLen() int {
	if g.ovl == nil {
		return 0
	}
	return len(g.ovl.ts)
}

// Fork returns a new generation of the graph: it shares the receiver's
// immutable base storage (CSR views, insertion-order slice, occurrence
// table) and dictionary contents, deep-copies the overlay, and is
// independently mutable through Add / Compact. The cost is
// O(overlay + dictionary extension), not O(graph) — this is what makes
// swap-a-whole-generation the cheap path for live ingest.
//
// From the fork on, the receiver must be treated as read-only (its
// dictionary is forked-from; see Dict.Fork): serve existing readers
// from it, route all writes to the fork.
func (g *Graph) Fork() *Graph {
	out := &Graph{
		dict:    g.dict.Fork(),
		all:     g.all,
		occ:     g.occ,
		domSize: g.domSize,
		frz:     g.frz,
		shd:     g.shd,
	}
	if o := g.ovl; o != nil {
		for _, t := range o.ts {
			out.addID(t)
		}
	}
	return out
}

// foldOverlay folds the overlay into the insertion-order slice and the
// occurrence table and clears it. Both are written as fresh slices —
// never in place — because the base versions may be shared with forked
// sibling generations. The sealed views are stale afterwards; callers
// re-seal (Freeze, Shard).
func (g *Graph) foldOverlay() {
	o := g.ovl
	all := make([]IDTriple, 0, len(g.all)+len(o.ts))
	all = append(all, g.all...)
	all = append(all, o.ts...)
	occ := make([]int32, g.dict.NumIRIs())
	copy(occ, g.occ)
	for id, d := range o.occDelta {
		occ[id] += d
	}
	g.all, g.occ = all, occ
	g.domSize += o.domDelta
	g.ovl = nil
}

// Compact folds the overlay into a new sealed base in the graph's
// current base shape: a sharded base re-shards with the same shard
// count, a frozen base re-freezes. The re-freeze path of the ingest
// pipeline is exactly Fork + Compact: the old generation keeps serving
// its readers untouched while the fork compacts, then the generation
// pointer swaps. Compact on a graph without an overlay is a no-op.
func (g *Graph) Compact() *Graph {
	if g.shd != nil {
		return g.Shard(g.shd.n)
	}
	return g.Freeze()
}
