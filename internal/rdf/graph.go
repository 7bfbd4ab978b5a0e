package rdf

import (
	"slices"
	"sort"
)

// Graph is a ground RDF graph: a finite set of RDF triples over IRIs
// (the paper assumes no blank nodes). Internally the graph is
// dictionary-encoded: every IRI is interned to a dense TermID in a
// private Dict and triples are stored as IDTriples.
//
// Storage has one model: a sealed base plus an optional overlay. The
// base is immutable — either the frozen CSR view (frozen.go: flat
// triple arenas with offset arrays indexed by dense TermID, galloping
// range searches, an open-addressing membership table) or the sharded
// CSR view (sharded.go) — and may be empty. Writes (Add, AddTriple,
// AddID) deduplicate against the base and append to the overlay
// (overlay.go), a small map-indexed write layer whose triples follow
// every base triple in insertion order. Freeze, Shard and Compact fold
// the overlay into a new sealed base. NewGraph starts from an empty
// frozen base, so an incrementally built graph is an overlay until it
// is first sealed.
//
// Every read returns the same triples in the same (insertion) order
// whatever the base shape and however the triples split between base
// and overlay. The string-based API (Add, Match, Contains,
// MatchMappings, ...) is a thin shim over the ID-native core; hot
// callers (the homomorphism solver, the pebble closure) use the *ID
// methods directly.
//
// All read operations are free of interning and internal caching, so a
// Graph is safe for concurrent readers once construction (including
// any Freeze call) is done.
//
// The zero value is not usable; call NewGraph.
type Graph struct {
	dict *Dict
	all  []IDTriple // base insertion order; returned directly by TriplesID

	occ     []int32 // base occurrence count per IRI ID across all positions
	domSize int     // number of IRI IDs with base occ > 0
	frz     *frozenView
	shd     *ShardedGraph // exactly one of frz and shd is non-nil
	ovl     *overlay      // write layer on the base; nil until the first write
}

// emptyView is the frozen view of the empty graph. Views are
// immutable, so every fresh graph shares it as its base.
var emptyView = freezeTriples(nil, 0)

// NewGraph returns an empty RDF graph: an empty frozen base whose
// writes go to the overlay.
func NewGraph() *Graph {
	return &Graph{dict: NewDict(), frz: emptyView}
}

// GraphOf builds a graph from a list of ground triples. It panics if
// any triple contains a variable; data construction errors are
// programming errors in this module.
func GraphOf(ts ...Triple) *Graph {
	g := NewGraph()
	for _, t := range ts {
		g.Add(t)
	}
	return g
}

// Dict returns the graph's term dictionary. Its IRI table covers
// exactly dom(G) plus any IRIs the caller interns explicitly; interned
// IRIs only join dom(G) when a triple containing them is added.
func (g *Graph) Dict() *Dict { return g.dict }

// Add inserts a ground triple into the graph's overlay, unless the
// graph already holds it. The sealed base is never touched, so
// in-flight readers of a shared base are never invalidated. Adding a
// triple that contains a variable panics: RDF graphs are ground by
// definition (Section 2 of the paper).
func (g *Graph) Add(t Triple) {
	if !t.Ground() {
		panic("rdf: cannot add non-ground triple " + t.String() + " to a graph")
	}
	g.addID(IDTriple{
		g.dict.InternIRI(t.S.Value),
		g.dict.InternIRI(t.P.Value),
		g.dict.InternIRI(t.O.Value),
	})
}

// AddTriple is a convenience for Add(T(IRI(s), IRI(p), IRI(o))).
func (g *Graph) AddTriple(s, p, o string) {
	g.addID(IDTriple{g.dict.InternIRI(s), g.dict.InternIRI(p), g.dict.InternIRI(o)})
}

// AddID inserts an encoded ground triple whose IDs were interned in
// g.Dict(). It panics on variable IDs or IDs unknown to the
// dictionary.
func (g *Graph) AddID(t IDTriple) {
	for _, id := range t {
		if id.IsVar() || int(id) >= g.dict.NumIRIs() {
			panic("rdf: AddID: ID not interned as an IRI in this graph's dictionary")
		}
	}
	g.addID(t)
}

func (g *Graph) addID(t IDTriple) {
	if g.baseContains(t) {
		return
	}
	o := g.ovl
	if o == nil {
		o = newOverlay()
		g.ovl = o
	}
	if _, dup := o.set[t]; dup {
		return
	}
	o.set[t] = struct{}{}
	o.ts = append(o.ts, t)
	o.index(t)
	for _, id := range t {
		d := o.occDelta[id]
		if d == 0 && g.baseOcc(id) == 0 {
			o.domDelta++
		}
		o.occDelta[id] = d + 1
	}
}

// OccurrencesID returns how many triple positions of G hold the IRI
// with the given ID (an IRI in i triples at j positions each counts
// i·j). Solvers use it as a cheap connectivity score for value
// ordering.
func (g *Graph) OccurrencesID(id TermID) int32 {
	if id.IsVar() {
		return 0
	}
	n := g.baseOcc(id)
	if o := g.ovl; o != nil {
		n += o.occDelta[id]
	}
	return n
}

// encodeGround encodes a ground triple without interning; ok is false
// when some IRI does not occur in the dictionary (and hence the triple
// cannot be in G).
func (g *Graph) encodeGround(t Triple) (IDTriple, bool) {
	s, ok := g.dict.LookupIRI(t.S.Value)
	if !ok {
		return IDTriple{}, false
	}
	p, ok := g.dict.LookupIRI(t.P.Value)
	if !ok {
		return IDTriple{}, false
	}
	o, ok := g.dict.LookupIRI(t.O.Value)
	if !ok {
		return IDTriple{}, false
	}
	return IDTriple{s, p, o}, true
}

// EncodePattern encodes a triple pattern without interning: IRI
// positions are resolved through the dictionary and variable positions
// receive positional variable IDs (VarID(0), VarID(1), ... by first
// occurrence; repeated variables share an ID). ok is false when some
// IRI constant does not occur in G's dictionary, in which case the
// pattern matches nothing.
func (g *Graph) EncodePattern(t Triple) (IDTriple, bool) {
	var out IDTriple
	var names [3]string
	n := 0
	for i, term := range t.Terms() {
		if term.IsVar() {
			slot := -1
			for j := 0; j < n; j++ {
				if names[j] == term.Value {
					slot = j
					break
				}
			}
			if slot < 0 {
				names[n] = term.Value
				slot = n
				n++
			}
			out[i] = VarID(slot)
			continue
		}
		id, ok := g.dict.LookupIRI(term.Value)
		if !ok {
			return IDTriple{}, false
		}
		out[i] = id
	}
	return out, true
}

// Contains reports whether the ground triple t is in G.
func (g *Graph) Contains(t Triple) bool {
	if !t.Ground() {
		return false
	}
	id, ok := g.encodeGround(t)
	if !ok {
		return false
	}
	return g.ContainsID(id)
}

// ContainsID reports whether the encoded ground triple is in G.
func (g *Graph) ContainsID(t IDTriple) bool {
	if o := g.ovl; o != nil {
		if _, ok := o.set[t]; ok {
			return true
		}
	}
	return g.baseContains(t)
}

// Len returns |G|, the number of triples.
func (g *Graph) Len() int { return len(g.all) + g.OverlayLen() }

// Dom returns dom(G), the sorted set of IRIs appearing in G.
func (g *Graph) Dom() []string {
	out := make([]string, 0, g.DomSize())
	for id, c := range g.occ {
		if c > 0 {
			out = append(out, g.dict.StringOf(TermID(id)))
		}
	}
	if o := g.ovl; o != nil {
		for id := range o.occDelta {
			if g.baseOcc(id) == 0 {
				out = append(out, g.dict.StringOf(id))
			}
		}
	}
	sort.Strings(out)
	return out
}

// DomIDs returns the IDs of dom(G), sorted ascending.
func (g *Graph) DomIDs() []TermID {
	out := make([]TermID, 0, g.DomSize())
	for id, c := range g.occ {
		if c > 0 {
			out = append(out, TermID(id))
		}
	}
	if o := g.ovl; o != nil {
		n := len(out)
		for id := range o.occDelta {
			if g.baseOcc(id) == 0 {
				out = append(out, id)
			}
		}
		if len(out) > n {
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		}
	}
	return out
}

// DomSize returns |dom(G)| without materialising the sorted slice.
func (g *Graph) DomSize() int {
	if o := g.ovl; o != nil {
		return g.domSize + o.domDelta
	}
	return g.domSize
}

// HasIRI reports whether the IRI value occurs anywhere in G.
func (g *Graph) HasIRI(v string) bool {
	id, ok := g.dict.LookupIRI(v)
	if !ok {
		return false
	}
	if int(id) < len(g.occ) && g.occ[id] > 0 {
		return true
	}
	if o := g.ovl; o != nil {
		return o.occDelta[id] > 0
	}
	return false
}

// Triples returns all triples in a deterministic order.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.Len())
	for _, t := range g.all {
		out = append(out, g.dict.DecodeTriple(t))
	}
	if o := g.ovl; o != nil {
		for _, t := range o.ts {
			out = append(out, g.dict.DecodeTriple(t))
		}
	}
	SortTriples(out)
	return out
}

// TriplesID returns all encoded triples in insertion order. Without an
// overlay the slice is the graph's internal storage and callers must
// not modify it; with an overlay it is freshly materialised (base
// followed by overlay — that suffix concatenation is insertion order,
// see overlay.go).
func (g *Graph) TriplesID() []IDTriple {
	if o := g.ovl; o != nil {
		out := make([]IDTriple, 0, len(g.all)+len(o.ts))
		out = append(out, g.all...)
		return append(out, o.ts...)
	}
	return g.all
}

// Match returns all triples of G matching the pattern p under the
// partial assignment already fixed inside p itself: a position holding
// an IRI must match exactly, a position holding a variable matches
// anything (repeated variables are checked for equality). The result
// order is unspecified.
func (g *Graph) Match(p Triple) []Triple {
	ip, ok := g.EncodePattern(p)
	if !ok {
		return nil
	}
	cands, exact := g.LookupRangeID(ip)
	out := make([]Triple, 0, len(cands))
	for _, t := range cands {
		if exact || MatchesPatternID(ip, t) {
			out = append(out, g.dict.DecodeTriple(t))
		}
	}
	return out
}

// MatchID is Match over encoded patterns (see EncodePattern for the
// pattern convention). The result of a pattern without repeated
// variables may alias internal storage: callers must not modify it.
func (g *Graph) MatchID(p IDTriple) []IDTriple {
	cands, exact := g.LookupRangeID(p)
	if exact {
		return cands
	}
	out := make([]IDTriple, 0, len(cands))
	for _, t := range cands {
		if MatchesPatternID(p, t) {
			out = append(out, t)
		}
	}
	return out
}

// MatchCount returns the number of triples matching the pattern.
func (g *Graph) MatchCount(p Triple) int {
	ip, ok := g.EncodePattern(p)
	if !ok {
		return 0
	}
	return g.MatchCountID(ip)
}

// MatchCountID returns the number of triples matching the encoded
// pattern. When the pattern has no repeated variables the count is the
// posting-list (or frozen range) length, with no scan: O(1) for at
// most one bound position, O(log) for two on the frozen backend. On
// the sharded backend cross-shard counts are sums of per-shard range
// lengths — no merge is materialised — and an overlay adds its own
// posting-list length, never concatenating it with the base list.
func (g *Graph) MatchCountID(p IDTriple) int {
	n := 0
	if hasRepeatedVar(p) {
		for _, t := range g.CandidatesID(p) {
			if MatchesPatternID(p, t) {
				n++
			}
		}
		return n
	}
	if sg := g.shd; sg != nil {
		n = sg.count(p)
	} else {
		n = len(g.frz.candidates(p))
	}
	if o := g.ovl; o != nil {
		n += o.count(p)
	}
	return n
}

// hasRepeatedVar reports whether the same variable ID occurs in more
// than one position of the encoded pattern.
func hasRepeatedVar(p IDTriple) bool {
	return (p[0].IsVar() && (p[0] == p[1] || p[0] == p[2])) ||
		(p[1].IsVar() && p[1] == p[2])
}

// LookupRangeID is the storage-backend seam used by the solvers: it
// returns the candidate posting list for the encoded pattern together
// with exact, which reports that every triple of the list matches the
// pattern (true exactly when the pattern has no repeated variable),
// so callers can skip the per-triple MatchesPatternID filter. The
// slice may be internal storage: callers must not modify it, and a
// list served from the overlay is only valid until the next write.
func (g *Graph) LookupRangeID(p IDTriple) ([]IDTriple, bool) {
	return g.CandidatesID(p), !hasRepeatedVar(p)
}

// CandidatesID selects the most selective index for the encoded
// pattern and returns its posting list. Every triple matching the
// pattern is in the list; the list may contain non-matches when the
// pattern has repeated variables. Every base shape returns the same
// triples in the same (insertion) order — on the sharded backend a
// cross-shard list is a freshly merged slice (see ShardedGraph), and
// a list spanning base and overlay is a fresh concatenation;
// everywhere else the slice is internal storage. Either way callers
// must not modify it.
func (g *Graph) CandidatesID(p IDTriple) []IDTriple {
	if o := g.ovl; o != nil {
		if !p[0].IsVar() && !p[1].IsVar() && !p[2].IsVar() {
			if g.ContainsID(p) {
				return []IDTriple{p}
			}
			return nil
		}
		base := g.baseCandidates(p)
		ov := o.candidates(p)
		switch {
		case len(ov) == 0:
			return base
		case len(base) == 0:
			return ov
		}
		// Fresh slice, never append onto base: the base list may alias
		// a frozen arena whose spare capacity belongs to the next range.
		// Base-then-overlay is the seq merge — see overlay.go.
		out := make([]IDTriple, 0, len(base)+len(ov))
		out = append(out, base...)
		return append(out, ov...)
	}
	return g.baseCandidates(p)
}

// baseCandidates is CandidatesID against the sealed base only.
func (g *Graph) baseCandidates(p IDTriple) []IDTriple {
	if sg := g.shd; sg != nil {
		return sg.candidates(p)
	}
	return g.frz.candidates(p)
}

// MatchMappings returns, for a triple pattern t, the paper's base-case
// evaluation ⟦t⟧G = {µ | dom(µ) = vars(t), µ(t) ∈ G}. Deduplication
// runs on encoded value vectors, not string keys.
func (g *Graph) MatchMappings(p Triple) []Mapping {
	var names [3]string // variable name per slot
	var slot [3]int     // position → slot, or -1 for constants
	n := 0
	var ip IDTriple
	for i, term := range p.Terms() {
		if !term.IsVar() {
			slot[i] = -1
			id, ok := g.dict.LookupIRI(term.Value)
			if !ok {
				return nil
			}
			ip[i] = id
			continue
		}
		s := -1
		for j := 0; j < n; j++ {
			if names[j] == term.Value {
				s = j
				break
			}
		}
		if s < 0 {
			names[n] = term.Value
			s = n
			n++
		}
		slot[i] = s
		ip[i] = VarID(s)
	}
	var out []Mapping
	seen := map[[3]TermID]struct{}{}
	cands, exact := g.LookupRangeID(ip)
	for _, t := range cands {
		if !exact && !MatchesPatternID(ip, t) {
			continue
		}
		var key [3]TermID
		for i := 0; i < 3; i++ {
			if slot[i] >= 0 {
				key[slot[i]] = t[i]
			}
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		m := make(Mapping, n)
		for j := 0; j < n; j++ {
			m[names[j]] = g.dict.StringOf(key[j])
		}
		out = append(out, m)
	}
	return out
}

// String renders the graph in the WriteGraph line format, in
// deterministic order.
func (g *Graph) String() string { return FormatGraph(g) }

// Clone returns a deep copy of the graph. IDs are preserved: the
// clone's dictionary assigns the same IDs to the same IRIs. The base
// is rebuilt in the same shape (a frozen base clones to a frozen base,
// a sharded base to a sharded base with the same shard count) and the
// overlay is replayed onto it — posting lists rebuilt, never shared —
// so writes to either graph stay invisible to the other.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		dict:    g.dict.Clone(),
		all:     slices.Clone(g.all),
		occ:     slices.Clone(g.occ),
		domSize: g.domSize,
	}
	if g.shd != nil {
		out.shd = shardGraph(out, g.shd.n)
	} else {
		out.frz = freezeGraph(out)
	}
	if o := g.ovl; o != nil {
		for _, t := range o.ts {
			out.addID(t)
		}
	}
	return out
}

// Merge adds all triples of h into g.
func (g *Graph) Merge(h *Graph) {
	for _, t := range h.TriplesID() {
		g.Add(h.dict.DecodeTriple(t))
	}
}

// Equal reports whether two graphs contain exactly the same triples.
func (g *Graph) Equal(h *Graph) bool {
	if g.Len() != h.Len() {
		return false
	}
	for _, t := range g.TriplesID() {
		if !h.Contains(g.dict.DecodeTriple(t)) {
			return false
		}
	}
	return true
}
