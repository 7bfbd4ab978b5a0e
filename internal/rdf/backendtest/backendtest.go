// Package backendtest is the differential test suite that pins every
// storage shape of rdf.Graph to an index-free reference. The paper's
// correctness guarantees (Romero, PODS 2018) are proved for one
// abstract graph; the implementation stores it as a sealed base —
// frozen CSR or sharded CSR, possibly empty — plus an optional overlay
// write layer, so the guarantees survive only if every shape is
// observationally equivalent to the abstract graph — same triples,
// same insertion order, byte for byte, on every read operation.
// RunBackendSuite is that equivalence check, written once and
// instantiated per shape. The reference it checks against shares no
// code with any of them: it answers every read by a linear scan of the
// triple list.
package backendtest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/gen"
	"wdsparql/internal/rdf"
)

// Trials is the number of random twin graphs the suite draws. Each
// trial also probes ~30 random patterns, so a run covers thousands of
// read operations per backend.
const Trials = 200

// MakeGraph builds the backend under test from an insertion-ordered
// ground triple list. Loading the same list must assign the same
// dictionary IDs in the same order as interning the triples' IRIs
// subject, predicate, object, triple by triple — every construction
// path in the package (Add, Freeze, Shard, GraphBuilder) does.
type MakeGraph func(ts []rdf.Triple) *rdf.Graph

// RunBackendSuite runs the differential suite: Trials random graphs,
// each loaded both as the scan reference and through make, then
// compared — content AND order — on every read operation of the Graph
// API, including repeated-variable patterns, constants absent from the
// graph, constants interned only after the seal, and the
// write / re-seal lifecycle.
func RunBackendSuite(t *testing.T, mk MakeGraph) {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < Trials; trial++ {
		ts := randTriples(rng)
		checkTwins(t, trial, newScanRef(ts), mk(ts), rng)
		if t.Failed() {
			return
		}
	}
	t.Run("lifecycle", func(t *testing.T) { checkLifecycle(t, mk) })
	t.Run("unseen-constant", func(t *testing.T) { checkUnseenConstant(t, mk) })
	t.Run("empty", func(t *testing.T) { checkEmpty(t, mk) })
}

// scanRef is the index-free reference: the deduplicated,
// insertion-ordered triple list, with IDs from a plain rdf.Dict
// interned in that order, and every read answered by a linear scan.
// A pattern's posting list is the triples that agree on its bound
// positions, in insertion order — what CandidatesID and LookupRangeID
// return on every backend.
type scanRef struct {
	dict *rdf.Dict
	ts   []rdf.IDTriple
}

func newScanRef(triples []rdf.Triple) *scanRef {
	r := &scanRef{dict: rdf.NewDict()}
	for _, t := range triples {
		id := rdf.IDTriple{r.dict.InternIRI(t.S.Value), r.dict.InternIRI(t.P.Value), r.dict.InternIRI(t.O.Value)}
		if !slices.Contains(r.ts, id) {
			r.ts = append(r.ts, id)
		}
	}
	return r
}

// encode mirrors Graph.EncodePattern: variables get positional IDs by
// first occurrence, constants resolve through the dictionary.
func (r *scanRef) encode(p rdf.Triple) (rdf.IDTriple, bool) {
	var out rdf.IDTriple
	var vars []string
	for i, term := range p.Terms() {
		if term.IsVar() {
			slot := slices.Index(vars, term.Value)
			if slot < 0 {
				slot = len(vars)
				vars = append(vars, term.Value)
			}
			out[i] = rdf.VarID(slot)
			continue
		}
		id, ok := r.dict.LookupIRI(term.Value)
		if !ok {
			return rdf.IDTriple{}, false
		}
		out[i] = id
	}
	return out, true
}

// candidates returns the triples agreeing with p on its bound
// positions, in insertion order.
func (r *scanRef) candidates(p rdf.IDTriple) []rdf.IDTriple {
	var out []rdf.IDTriple
	for _, t := range r.ts {
		if (p[0].IsVar() || t[0] == p[0]) && (p[1].IsVar() || t[1] == p[1]) && (p[2].IsVar() || t[2] == p[2]) {
			out = append(out, t)
		}
	}
	return out
}

// match returns the triples matching p, repeated variables included.
func (r *scanRef) match(p rdf.IDTriple) []rdf.IDTriple {
	var out []rdf.IDTriple
	for _, t := range r.candidates(p) {
		if rdf.MatchesPatternID(p, t) {
			out = append(out, t)
		}
	}
	return out
}

// repeatsVar reports whether a variable occurs in two positions of p;
// exactly then may a posting list hold non-matches.
func repeatsVar(p rdf.IDTriple) bool {
	return (p[0].IsVar() && (p[0] == p[1] || p[0] == p[2])) || (p[1].IsVar() && p[1] == p[2])
}

// occurrences counts the triple positions holding id.
func (r *scanRef) occurrences(id rdf.TermID) int32 {
	var n int32
	for _, t := range r.ts {
		for _, x := range t {
			if x == id {
				n++
			}
		}
	}
	return n
}

// domIDs returns the IDs occurring in some triple, ascending.
func (r *scanRef) domIDs() []rdf.TermID {
	var out []rdf.TermID
	for id := rdf.TermID(0); int(id) < r.dict.NumIRIs(); id++ {
		if r.occurrences(id) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// dom returns dom(G) as sorted strings.
func (r *scanRef) dom() []string {
	var out []string
	for _, id := range r.domIDs() {
		out = append(out, r.dict.StringOf(id))
	}
	slices.Sort(out)
	return out
}

// distinct counts the distinct values at position pos among the
// triples whose predicate is p, or among all triples when p is a
// variable.
func (r *scanRef) distinct(p rdf.TermID, pos int) int {
	var seen []rdf.TermID
	for _, t := range r.ts {
		if (p.IsVar() || t[1] == p) && !slices.Contains(seen, t[pos]) {
			seen = append(seen, t[pos])
		}
	}
	return len(seen)
}

// randTriples draws a random graph shape (Erdős–Rényi, Turán, social
// network) and returns its triples in insertion order.
func randTriples(rng *rand.Rand) []rdf.Triple {
	var g *rdf.Graph
	switch rng.Intn(3) {
	case 0:
		g = gen.Random(12, 40, 3, rng.Int63())
	case 1:
		g = gen.Turan(8, 3, "r")
	default:
		g = gen.SocialNetwork(10, rng.Int63())
	}
	ts := make([]rdf.Triple, 0, g.Len())
	for _, id := range g.TriplesID() {
		ts = append(ts, g.Dict().DecodeTriple(id))
	}
	return ts
}

// randPattern draws a triple pattern whose constants mostly occur in
// the domain (sometimes not, exercising the dictionary-miss path),
// with repeated variables common ("x" appears twice in the name pool).
func randPattern(rng *rand.Rand, dom []string) rdf.Triple {
	names := []string{"x", "y", "x", "z"}
	term := func() rdf.Term {
		switch rng.Intn(4) {
		case 0:
			return rdf.Var(names[rng.Intn(len(names))])
		case 1:
			return rdf.IRI("not-in-graph")
		default:
			return rdf.IRI(dom[rng.Intn(len(dom))])
		}
	}
	return rdf.T(term(), term(), term())
}

// checkTwins compares every read operation of the backend against the
// reference.
func checkTwins(t *testing.T, trial int, ref *scanRef, got *rdf.Graph, rng *rand.Rand) {
	t.Helper()
	domIDs := ref.domIDs()
	if len(ref.ts) != got.Len() || len(domIDs) != got.DomSize() {
		t.Fatalf("trial %d: Len/DomSize: %d/%d reference vs %d/%d backend",
			trial, len(ref.ts), len(domIDs), got.Len(), got.DomSize())
	}
	// Insertion order and membership, including perturbed absent
	// triples (a rotation of a present triple is almost never present).
	gotIDs := got.TriplesID()
	for i, id := range ref.ts {
		if gotIDs[i] != id {
			t.Fatalf("trial %d: TriplesID[%d] = %v backend, want %v", trial, i, gotIDs[i], id)
		}
		if !got.ContainsID(id) {
			t.Fatalf("trial %d: backend lost triple %v", trial, id)
		}
		absent := rdf.IDTriple{id[2], id[0], id[1]}
		if slices.Contains(ref.ts, absent) != got.ContainsID(absent) {
			t.Fatalf("trial %d: ContainsID(%v) disagrees", trial, absent)
		}
	}
	dom := ref.dom()
	if !slices.Equal(dom, got.Dom()) || !slices.Equal(domIDs, got.DomIDs()) {
		t.Fatalf("trial %d: Dom/DomIDs disagree", trial)
	}
	for _, id := range domIDs {
		if want, have := ref.occurrences(id), got.OccurrencesID(id); want != have {
			t.Fatalf("trial %d: OccurrencesID(%v): %d backend, want %d", trial, id, have, want)
		}
		if !got.HasIRI(ref.dict.StringOf(id)) {
			t.Fatalf("trial %d: HasIRI lost %v", trial, id)
		}
	}
	// Pattern probes: every index shape, repeated variables, misses.
	for probe := 0; probe < 30; probe++ {
		pat := randPattern(rng, dom)
		ipr, okr := ref.encode(pat)
		ipg, okg := got.EncodePattern(pat)
		if okr != okg || ipr != ipg {
			t.Fatalf("trial %d: EncodePattern disagrees on %v", trial, pat)
		}
		if !okr {
			continue
		}
		want := ref.match(ipr)
		if cg := got.MatchCountID(ipg); cg != len(want) {
			t.Fatalf("trial %d: MatchCountID(%v) = %d backend, want %d", trial, ipr, cg, len(want))
		}
		if mg := got.MatchID(ipg); !slices.Equal(want, mg) {
			t.Fatalf("trial %d: MatchID(%v) differs (content or order):\nreference: %v\nbackend:   %v",
				trial, ipr, want, mg)
		}
		cands := ref.candidates(ipr)
		if cg := got.CandidatesID(ipg); !slices.Equal(cands, cg) {
			t.Fatalf("trial %d: CandidatesID(%v) differs (content or order):\nreference: %v\nbackend:   %v",
				trial, ipr, cands, cg)
		}
		rg, eg := got.LookupRangeID(ipg)
		if eg == repeatsVar(ipr) || !slices.Equal(cands, rg) {
			t.Fatalf("trial %d: LookupRangeID(%v) differs", trial, ipr)
		}
	}
	// Selectivity catalog (cardstats.go): global distinct counts are
	// exact on every backend; per-predicate counts are exact except for
	// objects on a sharded base, where the per-shard sum may double
	// count objects recurring across shards — there the reference count
	// is the lower bound and the predicate's posting length the upper.
	for pos := 0; pos < 3; pos++ {
		if dr, dg := ref.distinct(rdf.VarID(0), pos), got.DistinctCount(pos); dr != dg {
			t.Fatalf("trial %d: DistinctCount(%d) = %d backend, want %d", trial, pos, dg, dr)
		}
	}
	for _, p := range domIDs {
		plen := len(ref.candidates(rdf.IDTriple{rdf.VarID(0), p, rdf.VarID(1)}))
		for _, pos := range []int{0, 2} {
			dr, dg := ref.distinct(p, pos), got.DistinctUnderPredicate(p, pos)
			if pos == 2 && got.Sharded() {
				if dg < dr || dg > plen {
					t.Fatalf("trial %d: DistinctUnderPredicate(%v, O) = %d outside [%d, %d] on sharded backend",
						trial, p, dg, dr, plen)
				}
				continue
			}
			if dr != dg {
				t.Fatalf("trial %d: DistinctUnderPredicate(%v, pos %d) = %d backend, want %d",
					trial, p, pos, dg, dr)
			}
		}
	}
}

// checkLifecycle verifies that a write to the backend loses no triple
// and admits no duplicate, and that the written graph — and its
// re-seal either way — still agrees with the reference.
func checkLifecycle(t *testing.T, mk MakeGraph) {
	t.Helper()
	ts := randTriples(rand.New(rand.NewSource(7)))
	g := mk(ts)
	n := g.Len()
	added := rdf.T(rdf.IRI("added-s"), rdf.IRI("added-p"), rdf.IRI("added-o"))
	g.Add(added)
	if g.Len() != n+1 || !g.Contains(added) {
		t.Fatal("triple lost across a write")
	}
	g.Add(added) // duplicate must be dropped
	if g.Len() != n+1 {
		t.Fatal("duplicate insert admitted")
	}
	ref := newScanRef(append(slices.Clone(ts), added))
	checkTwins(t, -1, ref, g, rand.New(rand.NewSource(11)))
	if t.Failed() {
		t.Fatal("write broke agreement")
	}
	for _, seal := range []struct {
		name string
		do   func(*rdf.Graph) *rdf.Graph
	}{
		{"freeze", func(g *rdf.Graph) *rdf.Graph { return g.Freeze() }},
		{"shard", func(g *rdf.Graph) *rdf.Graph { return g.Shard(3) }},
	} {
		c := seal.do(g.Clone())
		checkTwins(t, -1, ref, c, rand.New(rand.NewSource(11)))
		if t.Failed() {
			t.Fatalf("re-seal through %s broke agreement", seal.name)
		}
	}
}

// checkUnseenConstant verifies that pattern constants interned only
// after the seal (the dictionary grows, the sealed offsets do not)
// match nothing rather than read out of bounds.
func checkUnseenConstant(t *testing.T, mk MakeGraph) {
	t.Helper()
	g := mk([]rdf.Triple{rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b"))})
	late := g.Dict().InternIRI("late")
	for _, p := range []rdf.IDTriple{
		{late, rdf.VarID(0), rdf.VarID(1)},
		{rdf.VarID(0), late, rdf.VarID(1)},
		{rdf.VarID(0), rdf.VarID(1), late},
		{late, late, late},
	} {
		if g.MatchCountID(p) != 0 || len(g.CandidatesID(p)) != 0 || g.ContainsID(rdf.IDTriple{late, late, late}) {
			t.Fatalf("pattern %v with post-seal constant matched", p)
		}
	}
}

// checkEmpty verifies the degenerate graph.
func checkEmpty(t *testing.T, mk MakeGraph) {
	t.Helper()
	g := mk(nil)
	if g.Len() != 0 || g.DomSize() != 0 {
		t.Fatal("empty graph misbehaves")
	}
	if got := g.MatchCountID(rdf.IDTriple{rdf.VarID(0), rdf.VarID(1), rdf.VarID(2)}); got != 0 {
		t.Fatalf("empty MatchCountID = %d", got)
	}
}

// EqualStreams reports whether two graphs agree on the full
// enumeration stream — content AND order, compared through each
// graph's own dictionary, so it also catches dictionary divergence.
// It is the any-two-graphs agreement check used outside the suite
// (overlay compaction, snapshot round-trips, fuzz drivers).
func EqualStreams(a, b *rdf.Graph) bool {
	ta, tb := a.TriplesID(), b.TriplesID()
	if len(ta) != len(tb) || a.DomSize() != b.DomSize() {
		return false
	}
	for i := range ta {
		if a.Dict().DecodeTriple(ta[i]) != b.Dict().DecodeTriple(tb[i]) {
			return false
		}
	}
	return true
}

// SuiteName returns a conventional subtest name for a backend at a
// shard count, so the per-backend instantiations read uniformly in
// test output.
func SuiteName(backend string, shards int) string {
	if shards > 0 {
		return fmt.Sprintf("%s/shards=%d", backend, shards)
	}
	return backend
}
