package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// FILTER + projection on the compiled row pipeline, cross-validated
// against the compositional reference: every backend (overlay-only,
// frozen, sharded, overlay), both pushdown placements, both planner modes and
// parallel execution must emit byte-identical streams whose solution
// set matches sparql.EvalID.

// rebuildAs re-materialises g's triples on a fresh graph sealed into
// the requested backend; "overlay" splits them into a sealed base plus
// live deltas.
func rebuildAs(g *rdf.Graph, backend string) *rdf.Graph {
	ids := g.TriplesID()
	out := rdf.NewGraph()
	cut := len(ids)
	if backend == "overlay" {
		cut = len(ids) / 2
	}
	for _, id := range ids[:cut] {
		tr := g.Dict().DecodeTriple(id)
		out.AddTriple(tr.S.Value, tr.P.Value, tr.O.Value)
	}
	switch backend {
	case "overlay-only":
		return out
	case "frozen":
		out.Freeze()
	case "sharded":
		out.Shard(3)
	case "overlay":
		out.Freeze()
		for _, id := range ids[cut:] {
			tr := g.Dict().DecodeTriple(id)
			out.AddTriple(tr.S.Value, tr.P.Value, tr.O.Value)
		}
	}
	return out
}

// compileQuery mirrors the engine's prepare path on a bare forest
// program: unwrap SELECT, compile with the given pushdown setting,
// apply the projection view.
func compileQuery(q sparql.Pattern, g *rdf.Graph, noPush bool) (*core.ForestProgram, error) {
	inner := q
	var proj []string
	distinct := false
	sel, isSel := q.(sparql.Select)
	if isSel {
		inner = sel.Where
		distinct = sel.Distinct
		for _, v := range sel.Vars {
			proj = append(proj, v.Value)
		}
	}
	f, err := ptree.WDPF(inner)
	if err != nil {
		return nil, err
	}
	fp := core.CompileForestOpts(f, g, core.CompileOpts{NoFilterPushdown: noPush})
	if isSel {
		fp = fp.Project(proj, distinct)
	}
	return fp, nil
}

func streamStrings(fp *core.ForestProgram, workers int) []string {
	var out []string
	emit := func(r rdf.Row) bool {
		out = append(out, fmt.Sprint([]rdf.TermID(r)))
		return true
	}
	if workers > 1 {
		fp.RowsParallel(context.Background(), workers, emit)
	} else {
		fp.Rows(emit)
	}
	return out
}

func TestFilterProjectionCrossValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	backends := []string{"overlay-only", "frozen", "sharded", "overlay"}
	for trial := 0; trial < 60; trial++ {
		q, ok := gen.RandomWDQuery(rng, gen.PatternOpts{
			Depth: 3, Filters: 2, Select: trial%2 == 0, Union: trial%5 == 0,
		})
		if !ok {
			t.Fatal("query generator exhausted")
		}
		g := randData(rng)
		ref := sparql.EvalID(q, g)

		var baseline []string
		var baselineLayout *rdf.SlotLayout
		for _, backend := range backends {
			gb := rebuildAs(g, backend)
			for _, noPush := range []bool{false, true} {
				fp, err := compileQuery(q, gb, noPush)
				if err != nil {
					t.Fatalf("trial %d [%s]: compile %s: %v", trial, backend, sparql.Format(q), err)
				}
				variants := map[string][]string{
					"heuristic": streamStrings(fp, 1),
					"planned":   streamStrings(fp.Tuned(hom.ModePlanned, 0, nil), 1),
					"parallel":  streamStrings(fp.Tuned(hom.ModePlanned, 0, nil), 3),
				}
				for name, got := range variants {
					if baseline == nil {
						baseline = got
						baselineLayout = fp.Layout()
						continue
					}
					if len(got) != len(baseline) {
						t.Fatalf("trial %d: %s\n[%s/noPush=%v/%s] %d rows, baseline %d",
							trial, sparql.Format(q), backend, noPush, name, len(got), len(baseline))
					}
					for i := range got {
						if got[i] != baseline[i] {
							t.Fatalf("trial %d: %s\n[%s/noPush=%v/%s] stream diverged at row %d:\n%s\nvs\n%s",
								trial, sparql.Format(q), backend, noPush, name, i, got[i], baseline[i])
						}
					}
				}
			}
		}

		// Semantic agreement with the compositional reference: the
		// stream, deduplicated (projection without DISTINCT may repeat
		// projected rows), equals the reference set.
		gb := rebuildAs(g, "frozen")
		fp, err := compileQuery(q, gb, false)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := rdf.NewIDMappingSet(fp.Layout(), gb.Dict().NumIRIs())
		fp.Rows(func(r rdf.Row) bool { got.Add(r); return true })
		if got.Len() != ref.Len() {
			t.Fatalf("trial %d: %s\npipeline set %d vs reference %d",
				trial, sparql.Format(q), got.Len(), ref.Len())
		}
		gotDec := got.Decode(gb.Dict())
		for _, mu := range ref.Decode(g.Dict()).Slice() {
			if !gotDec.Contains(mu) {
				t.Fatalf("trial %d: %s\npipeline missing %v", trial, sparql.Format(q), mu)
			}
		}

		// DISTINCT streams carry no duplicates by contract.
		if sel, isSel := q.(sparql.Select); isSel && sel.Distinct {
			rows := streamStrings(fp, 1)
			seen := make(map[string]bool, len(rows))
			for _, r := range rows {
				if seen[r] {
					t.Fatalf("trial %d: DISTINCT stream repeated %s", trial, r)
				}
				seen[r] = true
			}
		}
		_ = baselineLayout
	}
}

// TestDeferredFilterPlacement pins the local/deferred split: a filter
// over the node's own scope is pushed into its RowProgram, a filter
// reaching into optional descendants is deferred to the subtree emit,
// and NoFilterPushdown defers everything.
func TestDeferredFilterPlacement(t *testing.T) {
	g := rdf.MustParseGraph("a p b .\nc p d .\nb q e .\n")
	q := sparql.MustParse(`((((?x p ?y) OPT (?y q ?z)) FILTER BOUND(?z)) FILTER ?x != c)`)
	f, err := ptree.WDPF(q)
	if err != nil {
		t.Fatal(err)
	}
	fp := core.CompileForest(f, g)
	en := fp.Explain()
	if len(en) != 1 {
		t.Fatalf("explain trees: %d", len(en))
	}
	var pushed, deferred int
	for _, note := range en[0].Filters {
		switch {
		case strings.HasSuffix(note, "[pushed]"):
			pushed++
		case strings.HasSuffix(note, "[deferred]"):
			deferred++
		default:
			t.Fatalf("unmarked filter note %q", note)
		}
	}
	if pushed != 1 || deferred != 1 {
		t.Fatalf("placement: %v", en[0].Filters)
	}

	// Only the (a,b,e) row survives BOUND(?z); ?x != c is redundant on
	// it but must not disturb the result.
	n := 0
	fp.Rows(func(r rdf.Row) bool { n++; return true })
	if n != 1 {
		t.Fatalf("rows: %d", n)
	}

	// All conjuncts deferred under NoFilterPushdown, same stream.
	fp2 := core.CompileForestOpts(f, g, core.CompileOpts{NoFilterPushdown: true})
	for _, note := range fp2.Explain()[0].Filters {
		if !strings.HasSuffix(note, "[deferred]") {
			t.Fatalf("NoFilterPushdown left %q", note)
		}
	}
	n2 := 0
	fp2.Rows(func(r rdf.Row) bool { n2++; return true })
	if n2 != n {
		t.Fatalf("pushdown changed the result: %d vs %d", n2, n)
	}
}

// TestProjectView pins the projection view: declared order, missing
// variables as Unbound, DISTINCT dedup, and the full layout still
// reachable for internal consumers.
func TestProjectView(t *testing.T) {
	g := rdf.MustParseGraph("a p b .\na p c .\nd p d .\n")
	f, err := ptree.WDPF(sparql.MustParse(`(?x p ?y)`))
	if err != nil {
		t.Fatal(err)
	}
	fp := core.CompileForest(f, g)

	proj := fp.Project([]string{"y", "x", "ghost"}, false)
	if !proj.Projected() || proj.Distinct() {
		t.Fatal("projection flags")
	}
	if got := proj.OutputVars(); len(got) != 3 || got[0] != "y" || got[1] != "x" || got[2] != "ghost" {
		t.Fatalf("output vars: %v", got)
	}
	if proj.Layout().Width() != 3 || proj.FullLayout().Width() != 2 {
		t.Fatalf("layout widths: %d out, %d full", proj.Layout().Width(), proj.FullLayout().Width())
	}
	var rows []rdf.Row
	proj.Rows(func(r rdf.Row) bool { rows = append(rows, r.Clone()); return true })
	if len(rows) != 3 {
		t.Fatalf("projected rows: %d", len(rows))
	}
	for _, r := range rows {
		if len(r) != 3 || r[2] != rdf.Unbound {
			t.Fatalf("ghost slot bound: %v", r)
		}
	}

	// DISTINCT on ?x collapses (a,b) and (a,c).
	dist := fp.Project([]string{"x"}, true)
	n := 0
	dist.Rows(func(r rdf.Row) bool { n++; return true })
	if n != 2 {
		t.Fatalf("distinct ?x: %d rows", n)
	}
	// The base program is untouched by the views.
	if fp.Projected() || fp.Layout().Width() != 2 {
		t.Fatal("Project must not mutate the receiver")
	}
	// EnumerateSet respects the projected layout.
	if set := dist.EnumerateSet(); set.Len() != 2 || set.Layout().Width() != 1 {
		t.Fatalf("EnumerateSet under projection: len %d width %d", set.Len(), set.Layout().Width())
	}
}
