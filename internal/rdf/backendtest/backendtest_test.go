package backendtest

import (
	"slices"
	"testing"

	"wdsparql/internal/rdf"
)

// The suite is only as good as its reference: check the scan reference
// against answers worked out by hand on a graph small enough to read.
func TestScanRef(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.T(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)) }
	r := newScanRef([]rdf.Triple{tr("a", "p", "b"), tr("b", "p", "c"), tr("a", "q", "a"), tr("a", "p", "b"), tr("c", "p", "c")})
	// Interning order: a=0 p=1 b=2 c=3 q=4; the duplicate is dropped.
	const a, p, b, c, q = 0, 1, 2, 3, 4
	x, y := rdf.VarID(0), rdf.VarID(1)
	if want := []rdf.IDTriple{{a, p, b}, {b, p, c}, {a, q, a}, {c, p, c}}; !slices.Equal(r.ts, want) {
		t.Fatalf("triples %v, want %v", r.ts, want)
	}

	if got, ok := r.encode(rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("x"))); !ok || got != (rdf.IDTriple{x, p, x}) {
		t.Fatalf("encode(?x p ?x) = %v, %v", got, ok)
	}
	if got, ok := r.encode(rdf.T(rdf.Var("x"), rdf.Var("y"), rdf.Var("x"))); !ok || got != (rdf.IDTriple{x, y, x}) {
		t.Fatalf("encode(?x ?y ?x) = %v, %v", got, ok)
	}
	if _, ok := r.encode(rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.IRI("z"))); ok {
		t.Fatal("encode resolved a constant absent from the graph")
	}

	for _, tc := range []struct {
		pat          rdf.IDTriple
		cands, match []rdf.IDTriple
		repeats      bool
	}{
		{rdf.IDTriple{x, p, x}, []rdf.IDTriple{{a, p, b}, {b, p, c}, {c, p, c}}, []rdf.IDTriple{{c, p, c}}, true},
		{rdf.IDTriple{x, y, x}, r.ts, []rdf.IDTriple{{a, q, a}, {c, p, c}}, true},
		{rdf.IDTriple{a, x, y}, []rdf.IDTriple{{a, p, b}, {a, q, a}}, []rdf.IDTriple{{a, p, b}, {a, q, a}}, false},
		{rdf.IDTriple{b, p, c}, []rdf.IDTriple{{b, p, c}}, []rdf.IDTriple{{b, p, c}}, false},
		{rdf.IDTriple{c, q, x}, nil, nil, false},
	} {
		if got := r.candidates(tc.pat); !slices.Equal(got, tc.cands) {
			t.Errorf("candidates(%v) = %v, want %v", tc.pat, got, tc.cands)
		}
		if got := r.match(tc.pat); !slices.Equal(got, tc.match) {
			t.Errorf("match(%v) = %v, want %v", tc.pat, got, tc.match)
		}
		if repeatsVar(tc.pat) != tc.repeats {
			t.Errorf("repeatsVar(%v) = %v", tc.pat, !tc.repeats)
		}
	}

	for id, want := range []int32{a: 3, p: 3, b: 2, c: 3, q: 1} {
		if got := r.occurrences(rdf.TermID(id)); got != want {
			t.Errorf("occurrences(%d) = %d, want %d", id, got, want)
		}
	}
	if got := r.domIDs(); !slices.Equal(got, []rdf.TermID{a, p, b, c, q}) {
		t.Errorf("domIDs = %v", got)
	}
	if got := r.dom(); !slices.Equal(got, []string{"a", "b", "c", "p", "q"}) {
		t.Errorf("dom = %v", got)
	}
	for _, tc := range []struct {
		pred      rdf.TermID
		pos, want int
	}{
		{x, 0, 3}, {x, 1, 2}, {x, 2, 3}, // global: subjects a b c, predicates p q, objects b c a
		{p, 0, 3}, {p, 2, 2}, {q, 2, 1}, // under p: subjects a b c, objects b c; under q: object a
	} {
		if got := r.distinct(tc.pred, tc.pos); got != tc.want {
			t.Errorf("distinct(%v, %d) = %d, want %d", tc.pred, tc.pos, got, tc.want)
		}
	}
}

func TestEqualStreams(t *testing.T) {
	ts := []rdf.Triple{
		rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")),
		rdf.T(rdf.IRI("b"), rdf.IRI("p"), rdf.IRI("c")),
	}
	if !EqualStreams(rdf.GraphOf(ts...), rdf.GraphFromTriplesSharded(ts, 2)) {
		t.Fatal("same triples in the same order must compare equal across shapes")
	}
	if EqualStreams(rdf.GraphOf(ts...), rdf.GraphOf(ts[1], ts[0])) {
		t.Fatal("a reordered stream compared equal")
	}
	if EqualStreams(rdf.GraphOf(ts...), rdf.GraphOf(ts[0])) {
		t.Fatal("a shorter stream compared equal")
	}
}
