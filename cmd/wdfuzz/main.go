// Command wdfuzz cross-validates the evaluators and the storage
// backends on randomized instances: for each trial it draws a random
// well-designed pattern and a random graph, evaluates with the
// compositional semantics (both join strategies), the Lemma 1 subtree
// enumeration, the top-down enumeration, and probes memberships with
// the naive and pebble decision procedures. The top-down enumeration
// additionally runs against every storage backend — the overlay-only
// graph (every triple in the overlay of an empty base), a frozen clone, sharded clones at each -shards count, and overlay
// twins of each (a sealed base carrying half the triples, the rest
// applied as live deltas on the overlay) — and the full row
// streams are diffed byte for byte (content AND order), so a
// backend that returns the right set in the wrong order fails a trial.
// With -planner (the default) each trial additionally diffs the query
// planner's search modes on every backend: the planned mode must
// reproduce the heuristic row stream byte for byte, and the strict
// plan-following mode must agree on the solution count. Any
// disagreement is printed with a reproducible seed and the process
// exits non-zero.
//
// With -filters > 0 (the default) each trial additionally draws a
// random FILTER-decorated query — every other trial wrapped in a
// SELECT projection, half of those DISTINCT — and diffs its compiled
// row stream across every backend, both planner modes and both filter
// placements (bind-time pushdown vs all-deferred): the streams must be
// byte-identical, and their solution set must match the compositional
// sparql.Eval reference, which applies filters post hoc over the
// unfiltered subevaluations.
//
// Usage:
//
//	wdfuzz [-trials 1000] [-seed 1] [-union] [-depth 3] [-shards 1,2,7] [-planner] [-filters 2]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"

	"wdsparql/internal/bench"
	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

func main() {
	trials := flag.Int("trials", 500, "number of random instances")
	seed := flag.Int64("seed", 1, "random seed")
	union := flag.Bool("union", false, "generate top-level UNION patterns")
	depth := flag.Int("depth", 3, "operator tree depth")
	shards := flag.String("shards", "1,2,7", "comma-separated shard counts for the sharded backend")
	planner := flag.Bool("planner", true, "diff planner modes (heuristic vs planned stream, strict count) per trial")
	filters := flag.Int("filters", 2, "max FILTER wraps on the filtered-query dimension (0 disables it)")
	flag.Parse()

	counts, err := bench.ParseShardCounts(*shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wdfuzz: -shards: %v\n", err)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(*seed))
	failures := 0
	for trial := 0; trial < *trials; trial++ {
		p, ok := gen.RandomWDPattern(rng, gen.PatternOpts{Depth: *depth, Union: *union})
		if !ok {
			fmt.Fprintln(os.Stderr, "wdfuzz: pattern generator exhausted")
			os.Exit(2)
		}
		g := randomGraph(rng)
		if !checkTrial(trial, p, g, counts, *planner) {
			failures++
			if failures >= 5 {
				break
			}
		}
		if *filters > 0 {
			q, ok := gen.RandomWDQuery(rng, gen.PatternOpts{
				Depth: *depth, Union: *union, Filters: *filters, Select: trial%2 == 0,
			})
			if !ok {
				fmt.Fprintln(os.Stderr, "wdfuzz: query generator exhausted")
				os.Exit(2)
			}
			if !checkFilterTrial(trial, q, randomGraph(rng), counts, *planner) {
				failures++
				if failures >= 5 {
					break
				}
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "wdfuzz: %d failing trial(s)\n", failures)
		os.Exit(1)
	}
	fmt.Printf("wdfuzz: %d trials passed (seed %d, shard counts %v)\n", *trials, *seed, counts)
}

func randomGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	nodes := []string{"a", "b", "c", "d"}
	preds := []string{"p", "q"}
	n := 4 + rng.Intn(10)
	for i := 0; i < n; i++ {
		g.AddTriple(nodes[rng.Intn(len(nodes))], preds[rng.Intn(len(preds))], nodes[rng.Intn(len(nodes))])
	}
	return g
}

// collectStream materialises the top-down row stream of the forest
// over one backend as cloned rows. Each backend is compiled separately
// against the same forest; identical dictionary IDs (clones preserve
// them) make the rows directly comparable.
func collectStream(f ptree.Forest, g *rdf.Graph) []rdf.Row {
	var out []rdf.Row
	core.CompileForest(f, g).Rows(func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

// overlayTwin rebuilds g as a sealed base carrying roughly half the
// triples plus a mutable delta overlay holding the rest. Replaying the
// triples in insertion order (TriplesID, not the sorted Triples)
// reproduces g's dictionary IDs exactly, so the twin's row stream is
// directly comparable to the overlay-only reference — the overlay merge must be
// unobservable just like the backends. shards ≤ 1 freezes the base;
// otherwise it is sharded.
func overlayTwin(g *rdf.Graph, shards int) *rdf.Graph {
	ids := g.TriplesID()
	ts := make([]rdf.Triple, len(ids))
	for i, t := range ids {
		ts[i] = g.Dict().DecodeTriple(t)
	}
	cut := len(ts) / 2
	og := rdf.NewGraph()
	for _, t := range ts[:cut] {
		og.AddTriple(t.S.Value, t.P.Value, t.O.Value)
	}
	if shards > 1 {
		og.Shard(shards)
	} else {
		og.Freeze()
	}
	for _, t := range ts[cut:] {
		og.AddTriple(t.S.Value, t.P.Value, t.O.Value)
	}
	return og
}

// collectTuned materialises the row stream of an already-compiled
// program under one search mode.
func collectTuned(fp *core.ForestProgram, mode hom.SearchMode) []rdf.Row {
	var out []rdf.Row
	fp.Tuned(mode, 0, nil).Rows(func(r rdf.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

func checkTrial(trial int, p sparql.Pattern, g *rdf.Graph, shardCounts []int, planner bool) bool {
	report := func(format string, args ...interface{}) bool {
		fmt.Fprintf(os.Stderr, "trial %d FAILED: %s\npattern: %s\ndata:\n%s",
			trial, fmt.Sprintf(format, args...), p, rdf.FormatGraph(g))
		return false
	}
	ref := sparql.Eval(p, g)
	if hash := sparql.EvalHashJoin(p, g); hash.Len() != ref.Len() {
		return report("hash-join %d vs nested-loop %d", hash.Len(), ref.Len())
	}
	f, err := ptree.WDPF(p)
	if err != nil {
		return report("wdpf: %v", err)
	}
	enum := core.EnumerateForest(f, g)
	if enum.Len() != ref.Len() {
		return report("enumeration %d vs compositional %d", enum.Len(), ref.Len())
	}
	topdown := core.EnumerateTopDownForest(f, g)
	if topdown.Len() != ref.Len() {
		return report("top-down %d vs compositional %d", topdown.Len(), ref.Len())
	}
	for _, mu := range ref.Slice() {
		if !enum.Contains(mu) || !topdown.Contains(mu) {
			return report("missing solution %s", mu)
		}
	}
	// Storage backends must be unobservable: the row stream over the
	// overlay-only graph is the reference, and the frozen clone plus every
	// sharded clone must reproduce it byte for byte — content and
	// order — through the same compiled enumeration.
	want := collectStream(f, g)
	if len(want) != ref.Len() {
		return report("row stream %d vs compositional %d", len(want), ref.Len())
	}
	backends := []struct {
		name string
		g    *rdf.Graph
	}{{"frozen", g.Clone().Freeze()}, {"frozen+ovl", overlayTwin(g, 0)}}
	for _, n := range shardCounts {
		backends = append(backends, struct {
			name string
			g    *rdf.Graph
		}{fmt.Sprintf("sharded(%d)", n), g.Clone().Shard(n)}, struct {
			name string
			g    *rdf.Graph
		}{fmt.Sprintf("sharded(%d)+ovl", n), overlayTwin(g, n)})
	}
	for _, b := range backends {
		got := collectStream(f, b.g)
		if len(got) != len(want) {
			return report("%s stream has %d rows, overlay-only has %d", b.name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				return report("%s stream diverges at row %d: %v vs %v", b.name, i, got[i], want[i])
			}
		}
	}
	// Planner dimension: on every backend, the planned mode must
	// reproduce the heuristic stream byte for byte (the determinism
	// contract behind WithPlanner), and the strict plan-following mode
	// — order-free by design — must agree on the cardinality.
	if planner {
		all := append([]struct {
			name string
			g    *rdf.Graph
		}{{"overlay-only", g}}, backends...)
		for _, b := range all {
			fp := core.CompileForest(f, b.g)
			heur := collectTuned(fp, hom.ModeHeuristic)
			planned := collectTuned(fp, hom.ModePlanned)
			if len(planned) != len(heur) {
				return report("%s planner stream has %d rows, heuristic has %d", b.name, len(planned), len(heur))
			}
			for i := range heur {
				if !slices.Equal(planned[i], heur[i]) {
					return report("%s planner stream diverges at row %d: %v vs %v", b.name, i, planned[i], heur[i])
				}
			}
			n := 0
			fp.Tuned(hom.ModeStrict, 0, nil).Rows(func(rdf.Row) bool { n++; return true })
			if n != len(heur) {
				return report("%s strict-mode count %d, heuristic stream has %d rows", b.name, n, len(heur))
			}
		}
	}
	k := core.DominationWidth(f)
	return checkProbes(report, ref, k, f, g)
}

func checkProbes(report func(string, ...interface{}) bool, ref *rdf.MappingSet, k int, f ptree.Forest, g *rdf.Graph) bool {
	probes := append(ref.Slice(),
		rdf.Mapping{"x": "a"}, rdf.Mapping{"x": "a", "y": "b"}, rdf.Mapping{})
	for _, mu := range probes {
		want := ref.Contains(mu)
		if got := core.EvalNaive(f, g, mu); got != want {
			return report("EvalNaive(%s)=%v want %v", mu, got, want)
		}
		if got := core.EvalPebble(k, f, g, mu); got != want {
			return report("EvalPebble(k=%d)(%s)=%v want %v", k, mu, got, want)
		}
	}
	return true
}

// compileFiltered mirrors the engine's prepare path: unwrap the
// optional SELECT, translate to a wdPF, compile with the requested
// filter placement, and apply the projection view.
func compileFiltered(q sparql.Pattern, g *rdf.Graph, noPush bool) (*core.ForestProgram, error) {
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

// checkFilterTrial diffs one FILTER/SELECT-decorated query: the row
// stream must be byte-identical across every backend × both filter
// placements × both planner modes, and its deduplicated solution set
// must match the compositional reference (which filters post hoc).
func checkFilterTrial(trial int, q sparql.Pattern, g *rdf.Graph, shardCounts []int, planner bool) bool {
	report := func(format string, args ...interface{}) bool {
		fmt.Fprintf(os.Stderr, "filter trial %d FAILED: %s\nquery: %s\ndata:\n%s",
			trial, fmt.Sprintf(format, args...), sparql.Format(q), rdf.FormatGraph(g))
		return false
	}
	backends := []struct {
		name string
		g    *rdf.Graph
	}{{"overlay-only", g}, {"frozen", g.Clone().Freeze()}, {"frozen+ovl", overlayTwin(g, 0)}}
	for _, n := range shardCounts {
		backends = append(backends, struct {
			name string
			g    *rdf.Graph
		}{fmt.Sprintf("sharded(%d)", n), g.Clone().Shard(n)}, struct {
			name string
			g    *rdf.Graph
		}{fmt.Sprintf("sharded(%d)+ovl", n), overlayTwin(g, n)})
	}
	var want []rdf.Row
	for _, b := range backends {
		for _, noPush := range []bool{false, true} {
			fp, err := compileFiltered(q, b.g, noPush)
			if err != nil {
				return report("compile [%s]: %v", b.name, err)
			}
			modes := []hom.SearchMode{hom.ModeHeuristic}
			if planner {
				modes = append(modes, hom.ModePlanned)
			}
			for _, mode := range modes {
				got := collectTuned(fp, mode)
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					return report("[%s noPush=%v mode=%v] %d rows, reference stream %d",
						b.name, noPush, mode, len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						return report("[%s noPush=%v mode=%v] stream diverges at row %d: %v vs %v",
							b.name, noPush, mode, i, got[i], want[i])
					}
				}
			}
		}
	}
	// Set-level agreement with the compositional semantics. Projection
	// without DISTINCT may repeat projected rows in the stream, so the
	// comparison deduplicates first.
	ref := sparql.EvalID(q, g)
	fp, err := compileFiltered(q, g, false)
	if err != nil {
		return report("compile: %v", err)
	}
	set := rdf.NewIDMappingSet(fp.Layout(), g.Dict().NumIRIs())
	fp.Rows(func(r rdf.Row) bool { set.Add(r); return true })
	if set.Len() != ref.Len() {
		return report("pipeline set %d vs compositional %d", set.Len(), ref.Len())
	}
	dec := set.Decode(g.Dict())
	for _, mu := range ref.Decode(g.Dict()).Slice() {
		if !dec.Contains(mu) {
			return report("pipeline missing solution %s", mu)
		}
	}
	return true
}
