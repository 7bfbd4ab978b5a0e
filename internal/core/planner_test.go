package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
)

// The planner's determinism contract at the forest level, across every
// storage backend: Tuned(ModePlanned) must reproduce the heuristic row
// stream byte for byte with nodes visited ≤, and Tuned(ModeStrict)
// must agree on the cardinality.

func collectForest(fp *core.ForestProgram) []rdf.Row {
	var out []rdf.Row
	fp.Rows(func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

// plannerOverlayTwin rebuilds g as a sealed base with the second half
// of the triples applied as live deltas (mirrors the wdfuzz twin).
func plannerOverlayTwin(g *rdf.Graph, shards int) *rdf.Graph {
	ids := g.TriplesID()
	og := rdf.NewGraph()
	cut := len(ids) / 2
	for _, id := range ids[:cut] {
		t := g.Dict().DecodeTriple(id)
		og.AddTriple(t.S.Value, t.P.Value, t.O.Value)
	}
	if shards > 1 {
		og.Shard(shards)
	} else {
		og.Freeze()
	}
	for _, id := range ids[cut:] {
		t := g.Dict().DecodeTriple(id)
		og.AddTriple(t.S.Value, t.P.Value, t.O.Value)
	}
	return og
}

func TestTunedModesAcrossBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 60; trial++ {
		p, ok := gen.RandomWDPattern(rng, gen.PatternOpts{Depth: 3})
		if !ok {
			t.Fatal("pattern generator exhausted")
		}
		f, err := ptree.WDPF(p)
		if err != nil {
			t.Fatalf("wdpf: %v", err)
		}
		g := gen.Random(8, 14, 2, rng.Int63())
		backends := []struct {
			name string
			g    *rdf.Graph
		}{
			{"overlay-only", g},
			{"frozen", g.Clone().Freeze()},
			{"sharded(3)", g.Clone().Shard(3)},
			{"frozen+ovl", plannerOverlayTwin(g, 0)},
			{"sharded(3)+ovl", plannerOverlayTwin(g, 3)},
		}
		for _, b := range backends {
			fp := core.CompileForest(f, b.g)
			var stH, stP hom.SearchStats
			heur := collectForest(fp.Tuned(hom.ModeHeuristic, 0, &stH))
			planned := collectForest(fp.Tuned(hom.ModePlanned, 0, &stP))
			if len(heur) != len(planned) {
				t.Fatalf("trial %d %s: %s: heuristic %d rows, planned %d",
					trial, b.name, p, len(heur), len(planned))
			}
			for i := range heur {
				if !slices.Equal(heur[i], planned[i]) {
					t.Fatalf("trial %d %s: %s: planned stream diverges at row %d",
						trial, b.name, p, i)
				}
			}
			if stP.Nodes > stH.Nodes {
				t.Fatalf("trial %d %s: planned visited %d nodes, heuristic %d",
					trial, b.name, stP.Nodes, stH.Nodes)
			}
			n := 0
			fp.Tuned(hom.ModeStrict, 0, nil).Rows(func(rdf.Row) bool { n++; return true })
			if n != len(heur) {
				t.Fatalf("trial %d %s: strict count %d, heuristic stream %d",
					trial, b.name, n, len(heur))
			}
		}
	}
}

// Tuned must not mutate the receiver: the original program keeps the
// heuristic mode.
func TestTunedIsCopyOnWrite(t *testing.T) {
	g := gen.Random(8, 20, 2, 3)
	v, i := rdf.Var, rdf.IRI
	f := ptree.Forest{ptree.FromSpec(ptree.Spec{Pattern: []rdf.Triple{
		rdf.T(v("x"), i("p0"), v("y")),
		rdf.T(v("y"), i("p1"), v("z")),
	}})}
	fp := core.CompileForest(f, g)
	before := collectForest(fp)
	tuned := fp.Tuned(hom.ModeStrict, 2, &hom.SearchStats{})
	if tuned == fp {
		t.Fatal("Tuned returned the receiver")
	}
	after := collectForest(fp)
	if len(before) != len(after) {
		t.Fatalf("Tuned mutated the receiver: %d rows before, %d after", len(before), len(after))
	}
	for i := range before {
		if !slices.Equal(before[i], after[i]) {
			t.Fatalf("Tuned mutated the receiver's stream at row %d", i)
		}
	}
}

// Explain exposes one plan per wdPT node with the node's own patterns,
// and child plans account for ancestor-bound entry slots in their
// first step's index side.
func TestExplainShape(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 8; i++ {
		g.AddTriple("s", "p0", "m")
		g.AddTriple("m", "p1", "t")
	}
	v, i := rdf.Var, rdf.IRI
	tree := ptree.FromSpec(ptree.Spec{
		Pattern: []rdf.Triple{rdf.T(v("x"), i("p0"), v("y"))},
		Children: []ptree.Spec{{
			Pattern: []rdf.Triple{rdf.T(v("y"), i("p1"), v("z"))},
		}},
	})
	fp := core.CompileForest(ptree.Forest{tree}, g)
	nodes := fp.Explain()
	if len(nodes) != 1 {
		t.Fatalf("Explain returned %d roots, want 1", len(nodes))
	}
	root := nodes[0]
	if len(root.Patterns) != 1 || len(root.Order) != 1 {
		t.Fatalf("root explain = %+v, want one pattern and one step", root)
	}
	if root.Order[0].Side != "P" {
		t.Fatalf("root step side = %q, want P (nothing bound at the root)", root.Order[0].Side)
	}
	if len(root.Children) != 1 {
		t.Fatalf("root has %d explain children, want 1", len(root.Children))
	}
	child := root.Children[0]
	if len(child.Order) != 1 {
		t.Fatalf("child explain = %+v, want one step", child)
	}
	if child.Order[0].Side != "SP" {
		t.Fatalf("child step side = %q, want SP (?y is entry-bound)", child.Order[0].Side)
	}
	if child.Patterns[0] == "" {
		t.Fatal("child pattern rendered empty")
	}
}
