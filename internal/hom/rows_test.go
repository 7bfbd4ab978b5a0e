package hom

import (
	"math/rand"
	"testing"

	"wdsparql/internal/rdf"
)

// The row-native one-shot forms against the brute-force oracle: for
// random patterns over random graphs, FindAllID decodes to exactly the
// complete solution set, and FindAllExtendingID to exactly the
// solutions that agree with the base row's bindings.

func randRowGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	nodes := []string{"a", "b", "c", "d", "e"}
	preds := []string{"p", "q"}
	n := 5 + rng.Intn(10)
	for i := 0; i < n; i++ {
		g.AddTriple(nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], nodes[rng.Intn(len(nodes))])
	}
	return g
}

func randRowPats(rng *rand.Rand) []rdf.Triple {
	vars := []rdf.Term{rdf.Var("x"), rdf.Var("y"), rdf.Var("z")}
	iris := []rdf.Term{rdf.IRI("a"), rdf.IRI("b")}
	preds := []rdf.Term{rdf.IRI("p"), rdf.IRI("q")}
	so := func() rdf.Term {
		if rng.Intn(4) == 0 {
			return iris[rng.Intn(len(iris))]
		}
		return vars[rng.Intn(len(vars))]
	}
	n := 1 + rng.Intn(3)
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.T(so(), preds[rng.Intn(len(preds))], so())
	}
	return out
}

func TestFindAllIDAgreesWithFindAll(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for c := 0; c < 200; c++ {
		g := randRowGraph(rng)
		pats := randRowPats(rng)
		layout := rdf.NewSlotLayout()
		got := decodeRows(layout, g, FindAllID(pats, g, layout, 0))
		if want := bruteAll(pats, g); !sameSolutions(got, want) {
			t.Fatalf("case %d: %v: rows decode to %v, brute force %v", c, pats, got, want)
		}
	}
}

func decodeRows(layout *rdf.SlotLayout, g *rdf.Graph, rows []rdf.Row) []rdf.Mapping {
	out := make([]rdf.Mapping, len(rows))
	for i, r := range rows {
		out[i] = layout.DecodeRow(g.Dict(), r)
	}
	return out
}

func TestFindAllIDLimit(t *testing.T) {
	g := rdf.NewGraph()
	for _, s := range []string{"a", "b", "c", "d"} {
		g.AddTriple(s, "p", s)
	}
	pats := []rdf.Triple{rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("x"))}
	layout := rdf.NewSlotLayout()
	rows := FindAllID(pats, g, layout, 2)
	if len(rows) != 2 {
		t.Fatalf("limit 2 returned %d rows", len(rows))
	}
}

func TestFindAllExtendingID(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for c := 0; c < 200; c++ {
		g := randRowGraph(rng)
		pats := randRowPats(rng)
		all := bruteAll(pats, g)
		if len(all) == 0 {
			continue
		}
		// Use the first solution's binding of its first variable as µ.
		vars := rdf.VarsOf(pats)
		if len(vars) == 0 {
			continue
		}
		pin, val := vars[0].Value, all[0][vars[0].Value]
		layout := rdf.NewSlotLayout()
		slot := layout.Intern(pin)
		base := layout.NewRow()
		base[slot], _ = g.Dict().LookupIRI(val)
		got := decodeRows(layout, g, FindAllExtendingID(pats, g, layout, base, 0))
		// Reference: every brute-force solution agreeing with µ.
		var want []rdf.Mapping
		for _, m := range all {
			if m[pin] == val {
				want = append(want, m)
			}
		}
		if !sameSolutions(got, want) {
			t.Fatalf("case %d: %v: extending %s=%s gives %v, want %v", c, pats, pin, val, got, want)
		}
	}
}

// The base row must be restored exactly after Run, including on early
// termination.
func TestRowSearcherRestoresRow(t *testing.T) {
	g := rdf.NewGraph()
	for _, s := range []string{"a", "b", "c"} {
		g.AddTriple(s, "p", "b")
	}
	layout := rdf.NewSlotLayout()
	prog := CompileRowProgram([]rdf.Triple{rdf.T(rdf.Var("x"), rdf.IRI("p"), rdf.Var("y"))}, g, layout)
	row := layout.NewRow()
	id, _ := g.Dict().LookupIRI("b")
	ySlot, _ := layout.Slot("y")
	row[ySlot] = id
	s := prog.NewSearcher()
	n := 0
	s.Run(row, func() bool { n++; return n < 2 }) // stop early
	if n != 2 {
		t.Fatalf("yields: %d", n)
	}
	xSlot, _ := layout.Slot("x")
	if row[xSlot] != rdf.Unbound || row[ySlot] != id {
		t.Fatalf("row not restored: %v", row)
	}
}
