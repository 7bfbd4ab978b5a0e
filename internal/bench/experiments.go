package bench

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"wdsparql"
	"wdsparql/internal/core"
	"wdsparql/internal/gen"
	"wdsparql/internal/graphalg"
	"wdsparql/internal/hom"
	"wdsparql/internal/pebble"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/reduction"
)

// E1 reproduces Example 3 / Figure 1: (S, X) is a core with
// ctw = k − 1, while (S', X) has tw = k − 1 but ctw = 1.
func E1CoreTreewidth(kMax int) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Core treewidth of the Figure 1 generalised t-graphs",
		Claim:  "ctw(S,X)=k-1; tw(S',X)=k-1 but ctw(S',X)=1 (Example 3)",
		Header: []string{"k", "ctw(S,X)", "tw(S',X)", "ctw(S',X)", "S core?", "time"},
	}
	for k := 2; k <= kMax; k++ {
		s := gen.ExampleS(k)
		sp := gen.ExampleSPrime(k)
		var ctwS, twSp, ctwSp int
		var isCore bool
		d := timed(func() {
			ctwS = core.CTW(s)
			twSp = core.TW(sp)
			ctwSp = core.CTW(sp)
			isCore = hom.IsCore(s)
		})
		t.AddRow(fmt.Sprint(k), fmt.Sprint(ctwS), fmt.Sprint(twSp), fmt.Sprint(ctwSp),
			fmt.Sprint(isCore), ms(d))
	}
	return t
}

// E2 reproduces Examples 4–5 / Figures 2–3: dw(F_k) = 1 for every k,
// local width = k − 1 (so F_k is not locally tractable), and the GtG
// set of the root subtree has exactly two elements.
func E2DominationWidth(kMax int) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Domination width of the wdPF F_k (Figure 2)",
		Claim:  "dw(F_k)=1 although local width = k-1 (Examples 4-5)",
		Header: []string{"k", "dw(F_k)", "local width", "|GtG(T1[r1])|", "time"},
	}
	for k := 2; k <= kMax; k++ {
		f := gen.Fk(k)
		var dw, lw, gtgSize int
		d := timed(func() {
			dw = core.DominationWidth(f)
			lw = core.LocalWidth(f)
			fs := ptree.ForestSubtree{Forest: f, TreeIndex: 0,
				Subtree: ptree.NewSubtree(f[0], f[0].Root.ID)}
			gtgSize = len(ptree.GtG(fs))
		})
		t.AddRow(fmt.Sprint(k), fmt.Sprint(dw), fmt.Sprint(lw), fmt.Sprint(gtgSize), ms(d))
	}
	return t
}

// E3 is the headline frontier experiment: evaluating µ over F_k on
// adversarial data (Turán graph, no k-clique, no q-edges) makes the
// natural algorithm refute a k-clique — exponential in k — while the
// Theorem 1 pebble algorithm stays polynomial. Both must return true.
func E3BoundedDW(kMax, n int) *Table {
	t := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("F_k evaluation on adversarial Turán data (n=%d)", n),
		Claim:  "naive grows exponentially in k; pebble stays polynomial (Theorem 1)",
		Header: []string{"k", "|G|", "naive", "pebble(k=1)", "agree", "answer"},
	}
	for k := 2; k <= kMax; k++ {
		f := gen.Fk(k)
		mu := gen.FkMu()
		g := gen.FkData(k, n, false, false)
		var ansN, ansP bool
		dN := timed(func() { ansN = core.EvalNaive(f, g, mu) })
		dP := timed(func() { ansP = core.EvalPebble(1, f, g, mu) })
		t.AddRow(fmt.Sprint(k), fmt.Sprint(g.Len()), ms(dN), ms(dP),
			fmt.Sprint(ansN == ansP), fmt.Sprint(ansN))
	}
	return t
}

// E4 covers the Section 3.2 UNION-free family T'_k: bounded branch
// treewidth (bw = 1 = dw, Proposition 5) without local tractability,
// and fast evaluation by both algorithms.
func E4BranchTreewidth(kMax, n int) *Table {
	t := &Table{
		ID:     "E4",
		Title:  fmt.Sprintf("T'_k: widths and evaluation (Turán data, n=%d)", n),
		Claim:  "bw(T'_k)=1=dw (Prop. 5) while local width = k-1 (§3.2)",
		Header: []string{"k", "bw", "dw", "local", "naive", "pebble(k=1)", "agree"},
	}
	for k := 2; k <= kMax; k++ {
		tk := gen.TkPrime(k)
		f := ptree.Forest{tk}
		bw := core.BranchTreewidth(tk)
		dw := core.DominationWidth(f)
		lw := core.LocalWidth(f)
		g := gen.TkPrimeData(n, k)
		mu := rdf.Mapping{"y": "b"}
		var ansN, ansP bool
		dN := timed(func() { ansN = core.EvalNaive(f, g, mu) })
		dP := timed(func() { ansP = core.EvalPebble(1, f, g, mu) })
		t.AddRow(fmt.Sprint(k), fmt.Sprint(bw), fmt.Sprint(dw), fmt.Sprint(lw),
			ms(dN), ms(dP), fmt.Sprint(ansN == ansP))
	}
	return t
}

// E5 runs the Theorem 2 reduction end-to-end: p-CLIQUE instances are
// compiled to co-wdEVAL and solved by the natural algorithm; the
// verdicts must match a direct clique search, polynomial in |H| for
// fixed k and exploding with k.
func E5CliqueReduction(ks []int, ns []int, seed int64) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "p-CLIQUE via the Section 4 reduction to co-wdEVAL",
		Claim:  "H has k-clique ⟺ µ ∉ ⟦P⟧G; poly in |H| for fixed k (Thm 2)",
		Header: []string{"k", "|V(H)|", "|E(H)|", "|G|", "build", "co-wdEVAL", "verdict", "oracle agrees"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range ks {
		for _, n := range ns {
			h := graphalg.NewUGraph(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < 0.5 {
						h.AddEdge(i, j)
					}
				}
			}
			var in *reduction.Instance
			var err error
			dBuild := timed(func() { in, err = reduction.New(k, h) })
			if err != nil {
				t.AddRow(fmt.Sprint(k), fmt.Sprint(n), "-", "-", "-", "-", "error", err.Error())
				continue
			}
			var verdict bool
			dEval := timed(func() { verdict = in.SolveCliqueViaEval() })
			oracle := graphalg.HasClique(h, k)
			t.AddRow(fmt.Sprint(k), fmt.Sprint(n), fmt.Sprint(h.EdgeCount()),
				fmt.Sprint(in.G.Len()), ms(dBuild), ms(dEval),
				fmt.Sprint(verdict), fmt.Sprint(verdict == oracle))
		}
	}
	return t
}

// E6 compares the existential k-pebble test against full homomorphism
// search on the K_k query over Turán graphs: verdicts differ exactly
// where Proposition 3's ctw ≤ k−1 premise fails, and the pebble test's
// cost stays polynomial while refutation explodes.
func E6PebbleVsHom(cliqueKs []int, n int) *Table {
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("pebble vs homomorphism on K_k queries over Turán T(n=%d, k-1)", n),
		Claim:  "pebble is PTIME and relaxes hom (Props 2-4); exact iff ctw ≤ pebbles-1",
		Header: []string{"clique k", "pebbles", "hom", "hom time", "pebble", "pebble time", "exact?"},
	}
	for _, k := range cliqueKs {
		pat := hom.NewTGraph(gen.KkTriples(k)...)
		gt := hom.NewGTGraph(pat, nil)
		g := gen.Turan(n, k-1, "r")
		var homAns bool
		dHom := timed(func() { homAns = hom.Exists(pat, g) })
		for _, pebbles := range []int{2, 3} {
			var pebAns bool
			dPeb := timed(func() { pebAns = pebble.Decide(pebbles, gt, rdf.NewMapping(), g) })
			t.AddRow(fmt.Sprint(k), fmt.Sprint(pebbles), fmt.Sprint(homAns), ms(dHom),
				fmt.Sprint(pebAns), ms(dPeb), fmt.Sprint(homAns == pebAns))
		}
	}
	return t
}

// E7 sweeps data size on the bounded-width F_3 workload: both
// algorithms are polynomial in |G| for a fixed query, with the pebble
// algorithm paying a (polynomial) game overhead and the naive
// algorithm paying the refutation overhead.
func E7DataScaling(k int, ns []int) *Table {
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("data scaling for F_%d (adversarial data)", k),
		Claim:  "both algorithms scale polynomially in |G| for fixed query",
		Header: []string{"n", "|G|", "naive", "pebble(k=1)", "agree"},
	}
	f := gen.Fk(k)
	mu := gen.FkMu()
	for _, n := range ns {
		g := gen.FkData(k, n, false, false)
		var ansN, ansP bool
		dN := timed(func() { ansN = core.EvalNaive(f, g, mu) })
		dP := timed(func() { ansP = core.EvalPebble(1, f, g, mu) })
		t.AddRow(fmt.Sprint(n), fmt.Sprint(g.Len()), ms(dN), ms(dP), fmt.Sprint(ansN == ansP))
	}
	return t
}

// E8Data builds the batched-evaluation workload: a Turán graph
// T(n, k−1) over predicate r (adversarial for the K_k refutation, as
// in E3) plus a p-cycle over its vertices. Every p-edge yields one
// candidate mapping {?x ↦ nᵢ, ?y ↦ nᵢ₊₁} for the F_k root pattern, so
// the batch size scales with n, and each candidate's ?y vertex has
// Turán r-edges to drive the clique test of node n12.
func E8Data(k, n int) *rdf.Graph {
	g := gen.Turan(n, k-1, "r")
	for i := 0; i < n; i++ {
		g.AddTriple(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", (i+1)%n))
	}
	return g
}

// E8 measures the batched entry point core.EvalAll against the
// per-mapping loop: all candidate mappings of the F_k root pattern are
// evaluated against one encoded graph, with the forest compiled once
// per mapping domain, sequentially and on a worker pool.
func E8BatchEval(k, n, workers int) *Table {
	t := &Table{
		ID:    "E8",
		Title: fmt.Sprintf("batched evaluation of all F_%d root candidates (n=%d)", k, n),
		Claim: "EvalAll compiles the forest once per domain; worker pool scales it",
		Header: []string{"alg", "|G|", "mappings", "loop", "EvalAll",
			fmt.Sprintf("EvalAll(workers=%d)", workers), "accepted", "agree"},
	}
	f := gen.Fk(k)
	g := E8Data(k, n)
	root := ptree.NewSubtree(f[0], f[0].Root.ID)
	mus := hom.FindAll(root.Pattern(), g, 0)
	for _, alg := range []core.Algorithm{core.AlgNaive, core.AlgPebble} {
		var loop, batch, batchPar []bool
		dLoop := timed(func() {
			loop = make([]bool, len(mus))
			for i, mu := range mus {
				loop[i] = core.Eval(alg, 1, f, g, mu)
			}
		})
		dBatch := timed(func() { batch = core.EvalAll(alg, 1, f, g, mus) })
		dPar := timed(func() { batchPar = core.EvalAllParallel(alg, 1, f, g, mus, workers) })
		accepted, agree := 0, true
		for i := range mus {
			if batch[i] {
				accepted++
			}
			if batch[i] != loop[i] || batchPar[i] != loop[i] {
				agree = false
			}
		}
		t.AddRow(alg.String(), fmt.Sprint(g.Len()), fmt.Sprint(len(mus)),
			ms(dLoop), ms(dBatch), ms(dPar),
			fmt.Sprint(accepted), fmt.Sprint(agree))
	}
	return t
}

// E9Tree builds the enumeration-throughput workload: a wdPT in the
// AND/OPT-dominated shape of real SPARQL logs (Han et al.) — a root
// edge with one optional two-step chain and one optional attribute
// arm, so per-root solutions combine by cross product and solutions
// have mixed domains (unbound slots).
//
//	      {?x p0 ?y}
//	      /        \
//	{?y p1 ?z}   {?y p3 ?w}
//	     |
//	{?z p2 ?u}
func E9Tree() *ptree.Tree {
	v := rdf.Var
	i := rdf.IRI
	return ptree.FromSpec(ptree.Spec{
		Pattern: []rdf.Triple{rdf.T(v("x"), i("p0"), v("y"))},
		Children: []ptree.Spec{
			{
				Pattern: []rdf.Triple{rdf.T(v("y"), i("p1"), v("z"))},
				Children: []ptree.Spec{
					{Pattern: []rdf.Triple{rdf.T(v("z"), i("p2"), v("u"))}},
				},
			},
			{Pattern: []rdf.Triple{rdf.T(v("y"), i("p3"), v("w"))}},
		},
	})
}

// E9Data builds the E9 graph: an Erdős–Rényi graph over 4 predicates.
func E9Data(n int) *rdf.Graph {
	return gen.Random(n, 4*n, 4, 7)
}

// E9 measures top-down enumeration throughput: the string pipeline
// (EnumerateTopDown on map mappings) against the compiled row pipeline
// (EnumerateTopDownForestID), sequential and on a worker pool, with
// rows/sec for the row pipeline. The verdict column checks that the
// decoded rows coincide with the string result.
func E9Enumeration(ns []int, workers int) *Table {
	t := &Table{
		ID:    "E9",
		Title: "top-down enumeration throughput: string vs compiled rows",
		Claim: "row pipeline beats string mappings; -workers partitions across root rows (gains need >1 CPU)",
		Header: []string{"n", "|G|", "rows", "string", "rows(ID)", "rows/s",
			fmt.Sprintf("parallel(workers=%d)", workers), "agree"},
	}
	tree := E9Tree()
	f := ptree.Forest{tree}
	for _, n := range ns {
		g := E9Data(n)
		var want *rdf.MappingSet
		dStr := timed(func() { want = core.EnumerateTopDown(tree, g) })
		var idSet *rdf.IDMappingSet
		dID := timed(func() { idSet = core.EnumerateTopDownForestID(f, g) })
		var parSet *rdf.IDMappingSet
		dPar := timed(func() { parSet = core.EnumerateTopDownParallel(f, g, workers) })
		agree := idSet.Len() == want.Len() && parSet.Len() == want.Len()
		if agree {
			// Parallel must reproduce the sequential rows exactly
			// (same content and insertion order), and the decoded rows
			// must coincide with the string pipeline's mappings.
			for i := 0; i < idSet.Len() && agree; i++ {
				a, b := idSet.Row(i), parSet.Row(i)
				for j := range a {
					if a[j] != b[j] {
						agree = false
						break
					}
				}
			}
			decoded := idSet.Decode(g.Dict())
			for _, mu := range want.Slice() {
				if !decoded.Contains(mu) {
					agree = false
					break
				}
			}
		}
		rps := "-"
		if s := dID.Seconds(); s > 0 {
			rps = fmt.Sprintf("%.0f", float64(idSet.Len())/s)
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(g.Len()), fmt.Sprint(idSet.Len()),
			ms(dStr), ms(dID), rps, ms(dPar), fmt.Sprint(agree))
	}
	return t
}

// E10PatternText is the E9 enumeration workload written as a graph
// pattern, so it can enter the public engine API through Prepare: the
// root edge with one optional two-step chain and one optional
// attribute arm (the wdpf of this pattern is exactly E9Tree).
const E10PatternText = `(((?x p0 ?y) OPT ((?y p1 ?z) OPT (?z p2 ?u))) OPT (?y p3 ?w))`

// E10PreparedVsOneShot measures the prepare/execute split of the
// engine API on repeated-query workloads: reps× the deprecated
// one-shot Solutions (engine thrown away each call, forest re-compiled
// against the graph) against one Engine.Prepare followed by reps×
// PreparedQuery executions — materialising All and zero-decode Count.
// The verdict column cross-checks all cardinalities.
func E10PreparedVsOneShot(ns []int, reps int) *Table {
	t := &Table{
		ID:    "E10",
		Title: "prepared-query amortization: Prepare once + N×execute vs N×Solutions",
		Claim: "prepared execution beats one-shot Solutions on repeated-query workloads",
		Header: []string{"n", "|G|", "rows", fmt.Sprintf("N=%d", reps),
			"one-shot", "prepare", "N×All", "N×Count", "agree"},
	}
	ctx := context.Background()
	p := wdsparql.MustParsePattern(E10PatternText)
	for _, n := range ns {
		g := E9Data(n)
		agree := true
		var want int
		dOne := timed(func() {
			for r := 0; r < reps; r++ {
				set, err := wdsparql.Solutions(p, g)
				if err != nil {
					panic(err)
				}
				if r == 0 {
					want = set.Len()
				} else if set.Len() != want {
					agree = false
				}
			}
		})
		eng := wdsparql.NewEngine(g)
		var q *wdsparql.PreparedQuery
		var err error
		dPrep := timed(func() { q, err = eng.Prepare(p) })
		if err != nil {
			panic(err)
		}
		dAll := timed(func() {
			for r := 0; r < reps; r++ {
				set, err := q.All(ctx)
				if err != nil || set.Len() != want {
					agree = false
				}
			}
		})
		dCount := timed(func() {
			for r := 0; r < reps; r++ {
				c, err := q.Count(ctx)
				if err != nil || c != want {
					agree = false
				}
			}
		})
		t.AddRow(fmt.Sprint(n), fmt.Sprint(g.Len()), fmt.Sprint(want), "",
			ms(dOne), ms(dPrep), ms(dAll), ms(dCount), fmt.Sprint(agree))
	}
	return t
}

// E11Triples returns the E11 workload as a plain triple list (the E9
// Erdős–Rényi shape), so the same list can be loaded into both
// storage backends: loading the list in order assigns identical
// dictionary IDs, which is what lets E11 compare ID-level results
// across backends directly.
func E11Triples(n int) []rdf.Triple {
	return E9Data(n).Triples()
}

// E11Probes derives a probe-pattern mix from the graph's own triples,
// covering every index shape: one bound position (S, P, O), two bound
// positions (SP, PO, SO) and ground membership — the probes the
// solvers' fail-first selectivity loop issues at every search node.
// samples bounds the number of sampled triples (≤ 0: every triple;
// probe diversity matters, because a small hot probe set lets the map
// backend answer from cache, which no real search workload does).
// Repeated-variable patterns are deliberately not in the throughput
// mix: their residual filter scan is backend-independent by design
// (same candidates, same MatchesPatternID), so they only measure the
// workload, not the storage backend; E11 checks them for agreement
// instead. Probes are encoded IDTriples, valid for any graph loaded
// from the same triple list (identical dictionary IDs).
func E11Probes(g *rdf.Graph, samples int) []rdf.IDTriple {
	ts := g.TriplesID()
	step := 1
	if samples > 0 && len(ts) > samples {
		step = len(ts) / samples
	}
	out := make([]rdf.IDTriple, 0, 7*(len(ts)/step+1))
	x, y := rdf.VarID(0), rdf.VarID(1)
	for i := 0; i < len(ts); i += step {
		t := ts[i]
		out = append(out,
			rdf.IDTriple{t[0], x, y},    // bound S
			rdf.IDTriple{x, t[1], y},    // bound P
			rdf.IDTriple{x, y, t[2]},    // bound O
			rdf.IDTriple{t[0], t[1], y}, // bound SP
			rdf.IDTriple{x, t[1], t[2]}, // bound PO
			rdf.IDTriple{t[0], x, t[2]}, // bound SO
			t,                           // ground membership
		)
	}
	return out
}

// e11AgreeProbes extends the throughput probes with the shapes that
// exercise the residual-filter path: repeated variables across every
// position pair and the fully unbound pattern.
func e11AgreeProbes(g *rdf.Graph) []rdf.IDTriple {
	out := E11Probes(g, 64)
	ts := g.TriplesID()
	x := rdf.VarID(0)
	step := len(ts)/64 + 1
	for i := 0; i < len(ts); i += step {
		t := ts[i]
		out = append(out,
			rdf.IDTriple{x, t[1], x}, // repeated S=O
			rdf.IDTriple{x, x, t[2]}, // repeated S=P
			rdf.IDTriple{t[0], x, x}, // repeated P=O
			rdf.IDTriple{x, x, x},    // triple loop
		)
	}
	return append(out, rdf.IDTriple{x, rdf.VarID(1), rdf.VarID(2)})
}

// E11 measures the frozen CSR backend against the overlay-only graph
// (every triple in the map-indexed overlay of an empty frozen base,
// the shape GraphOf builds; the "ovl" columns) on the same triple set:
// cold load (incremental overlay construction vs the counting-pass
// bulk load), MatchCountID and MatchID probe throughput over the full
// index-shape mix, and top-down enumeration of the E9 tree. The count
// loop probes with every triple of the graph (full key diversity, the
// cache behaviour of a real search); the match loop uses a sparser
// sample. The agree column checks that counts, match
// results (content and order) and enumeration streams (content and
// order) coincide.
func E11FrozenBackend(ns []int, reps int) *Table {
	t := &Table{
		ID:    "E11",
		Title: fmt.Sprintf("frozen CSR backend vs overlay-only graph (%d probe reps)", reps),
		Claim: "freeze: array/galloping probes beat map lookups; bulk load beats incremental; identical streams",
		Header: []string{"n", "|G|", "load(ovl)", "load(bulk)", "count(ovl)", "count(frz)",
			"match(ovl)", "match(frz)", "enum(ovl)", "enum(frz)", "agree"},
	}
	f := ptree.Forest{E9Tree()}
	for _, n := range ns {
		ts := E11Triples(n)
		var gov, gf *rdf.Graph
		dLoadOvl := timed(func() { gov = rdf.GraphOf(ts...) })
		dLoadBulk := timed(func() { gf = rdf.GraphFromTriples(ts) })
		// The sharded backend rides the agreement checks of this table
		// (its own timings are E12's subject): every probe below is
		// also cross-checked against a 3-shard twin.
		gs := rdf.GraphFromTriplesSharded(ts, 3)
		countProbes := E11Probes(gov, 0)
		matchProbes := E11Probes(gov, 128)
		agree := gov.Len() == gf.Len() && gov.Len() == gs.Len()
		var cm, cf int
		dCountM := timed(func() {
			for r := 0; r < reps; r++ {
				cm = 0
				for _, p := range countProbes {
					cm += gov.MatchCountID(p)
				}
			}
		})
		dCountF := timed(func() {
			for r := 0; r < reps; r++ {
				cf = 0
				for _, p := range countProbes {
					cf += gf.MatchCountID(p)
				}
			}
		})
		var mm, mf int
		dMatchM := timed(func() {
			for r := 0; r < reps; r++ {
				mm = 0
				for _, p := range matchProbes {
					mm += len(gov.MatchID(p))
				}
			}
		})
		dMatchF := timed(func() {
			for r := 0; r < reps; r++ {
				mf = 0
				for _, p := range matchProbes {
					mf += len(gf.MatchID(p))
				}
			}
		})
		if cm != cf || mm != mf {
			agree = false
		}
		for _, p := range e11AgreeProbes(gov) {
			if gov.MatchCountID(p) != gf.MatchCountID(p) ||
				gov.MatchCountID(p) != gs.MatchCountID(p) ||
				!slices.Equal(gov.MatchID(p), gf.MatchID(p)) ||
				!slices.Equal(gov.MatchID(p), gs.MatchID(p)) ||
				!slices.Equal(gov.CandidatesID(p), gf.CandidatesID(p)) ||
				!slices.Equal(gov.CandidatesID(p), gs.CandidatesID(p)) {
				agree = false
				break
			}
		}
		var em, ef *rdf.IDMappingSet
		dEnumM := timed(func() { em = core.EnumerateTopDownForestID(f, gov) })
		dEnumF := timed(func() { ef = core.EnumerateTopDownForestID(f, gf) })
		es := core.EnumerateTopDownForestID(f, gs)
		if em.Len() != ef.Len() || em.Len() != es.Len() {
			agree = false
		} else {
			for i := 0; i < em.Len() && agree; i++ {
				agree = slices.Equal(em.Row(i), ef.Row(i)) && slices.Equal(em.Row(i), es.Row(i))
			}
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(gov.Len()), ms(dLoadOvl), ms(dLoadBulk),
			ms(dCountM), ms(dCountF), ms(dMatchM), ms(dMatchF),
			ms(dEnumM), ms(dEnumF), fmt.Sprint(agree))
	}
	return t
}

// E12MatchProbes derives the solver-realistic materialisation mix
// from the graph's own triples: subject-bound shapes (S, SP, SO),
// (P,O) range probes and ground membership — the patterns the
// fail-first loop actually materialises through LookupRangeID after
// MatchCountID has ranked all patterns by selectivity. Single-bound P
// and O probes are deliberately separate (E12MergeProbes): the solver
// materialises them only when nothing more selective exists, and on
// the sharded backend they are the full cross-shard k-way merge,
// measured in its own column rather than averaged away here.
func E12MatchProbes(g *rdf.Graph, samples int) []rdf.IDTriple {
	ts := g.TriplesID()
	step := 1
	if samples > 0 && len(ts) > samples {
		step = len(ts) / samples
	}
	out := make([]rdf.IDTriple, 0, 5*(len(ts)/step+1))
	x, y := rdf.VarID(0), rdf.VarID(1)
	for i := 0; i < len(ts); i += step {
		t := ts[i]
		out = append(out,
			rdf.IDTriple{t[0], x, y},    // bound S: one shard, zero-copy
			rdf.IDTriple{t[0], t[1], y}, // bound SP: one shard, gallop
			rdf.IDTriple{t[0], x, t[2]}, // bound SO: one shard, gallop
			rdf.IDTriple{x, t[1], t[2]}, // bound PO: per-shard gallop + merge
			t,                           // ground membership: one shard
		)
	}
	return out
}

// E12MergeProbes is the cross-shard single-key mix: bound-P and
// bound-O patterns, whose materialisation on the sharded backend is
// the k-way sequence-number merge over every shard's posting list
// (the frozen backend returns the same lists as zero-copy arena
// ranges — this column is the price of the partition).
func E12MergeProbes(g *rdf.Graph, samples int) []rdf.IDTriple {
	ts := g.TriplesID()
	step := 1
	if samples > 0 && len(ts) > samples {
		step = len(ts) / samples
	}
	out := make([]rdf.IDTriple, 0, 2*(len(ts)/step+1))
	x, y := rdf.VarID(0), rdf.VarID(1)
	for i := 0; i < len(ts); i += step {
		t := ts[i]
		out = append(out,
			rdf.IDTriple{x, t[1], y}, // bound P
			rdf.IDTriple{x, y, t[2]}, // bound O
		)
	}
	return out
}

// E12 measures the sharded backend against the frozen backend on the
// same triple set, per shard count m: cold load (bulk into one arena
// vs bulk into m shards), MatchCountID over the full index-shape mix
// (sharded counts are sums of per-shard range lengths — no merge),
// MatchID over the solver-realistic materialisation mix
// (E12MatchProbes), the cross-shard single-key merge in its own
// column (E12MergeProbes), and top-down enumeration of the E9 tree.
// The agree column cross-checks, per (n, m): counts, match results
// and candidate lists over the full shape mix including repeated
// variables (e11AgreeProbes), the AllID merge against the insertion
// order, and byte-identical enumeration streams.
func E12ShardedBackend(ns []int, shardCounts []int, reps int) *Table {
	t := &Table{
		ID:    "E12",
		Title: fmt.Sprintf("sharded backend vs frozen backend (%d probe reps, shard counts %v)", reps, shardCounts),
		Claim: "subject-bound probes stay one-shard zero-copy, counts sum, only cross-shard lists pay the seq merge; identical streams",
		Header: []string{"n", "|G|", "m", "load(frz)", "load(shd)", "count(frz)", "count(shd)",
			"match(frz)", "match(shd)", "merge(frz)", "merge(shd)", "enum(frz)", "enum(shd)", "agree"},
	}
	f := ptree.Forest{E9Tree()}
	timeProbes := func(g *rdf.Graph, count, match, merge []rdf.IDTriple) (dc, dma, dme time.Duration, sums [3]int) {
		dc = timed(func() {
			for r := 0; r < reps; r++ {
				sums[0] = 0
				for _, p := range count {
					sums[0] += g.MatchCountID(p)
				}
			}
		})
		dma = timed(func() {
			for r := 0; r < reps; r++ {
				sums[1] = 0
				for _, p := range match {
					sums[1] += len(g.MatchID(p))
				}
			}
		})
		dme = timed(func() {
			for r := 0; r < reps; r++ {
				sums[2] = 0
				for _, p := range merge {
					sums[2] += len(g.MatchID(p))
				}
			}
		})
		return
	}
	for _, n := range ns {
		ts := E11Triples(n)
		var gf *rdf.Graph
		dLoadF := timed(func() { gf = rdf.GraphFromTriples(ts) })
		countProbes := E11Probes(gf, 0)
		matchProbes := E12MatchProbes(gf, 128)
		mergeProbes := E12MergeProbes(gf, 64)
		agreeProbes := e11AgreeProbes(gf)
		dCountF, dMatchF, dMergeF, sumsF := timeProbes(gf, countProbes, matchProbes, mergeProbes)
		var ef *rdf.IDMappingSet
		dEnumF := timed(func() { ef = core.EnumerateTopDownForestID(f, gf) })
		for _, m := range shardCounts {
			var gs *rdf.Graph
			dLoadS := timed(func() { gs = rdf.GraphFromTriplesSharded(ts, m) })
			dCountS, dMatchS, dMergeS, sumsS := timeProbes(gs, countProbes, matchProbes, mergeProbes)
			var es *rdf.IDMappingSet
			dEnumS := timed(func() { es = core.EnumerateTopDownForestID(f, gs) })
			agree := gf.Len() == gs.Len() && sumsF == sumsS &&
				slices.Equal(gs.Shards().AllID(), gf.TriplesID())
			for _, p := range agreeProbes {
				if gf.MatchCountID(p) != gs.MatchCountID(p) ||
					!slices.Equal(gf.MatchID(p), gs.MatchID(p)) ||
					!slices.Equal(gf.CandidatesID(p), gs.CandidatesID(p)) {
					agree = false
					break
				}
			}
			if ef.Len() != es.Len() {
				agree = false
			} else {
				for i := 0; i < ef.Len() && agree; i++ {
					agree = slices.Equal(ef.Row(i), es.Row(i))
				}
			}
			t.AddRow(fmt.Sprint(n), fmt.Sprint(gf.Len()), fmt.Sprint(m),
				ms(dLoadF), ms(dLoadS), ms(dCountF), ms(dCountS),
				ms(dMatchF), ms(dMatchS), ms(dMergeF), ms(dMergeS),
				ms(dEnumF), ms(dEnumS), fmt.Sprint(agree))
		}
	}
	return t
}

// Experiment is a named, lazily-run experiment: Run executes the
// sweeps and builds the table. Callers that only want some experiments
// (wdbench -only, profiling runs) filter by ID before paying for
// execution.
type Experiment struct {
	ID  string
	Run func() *Table
}

// ParseShardCounts parses a comma-separated list of positive shard
// counts — the value syntax of the -shards flag shared by wdbench
// (the E12 sweep) and wdfuzz (the backend stream diff).
func ParseShardCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard counts")
	}
	return out, nil
}

// Experiments returns the E1..E17 suite as lazily-run experiments.
// shardCounts parameterises the E12 shard-scaling sweep (wdbench
// -shards); when omitted it defaults to 1, 2 and 4.
func Experiments(full bool, workers int, shardCounts ...int) []Experiment {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	e3Max := 6
	e13PerClient := 4
	e14Ns := []int{4096, 16384}
	e16N := 2048
	if full {
		e3Max = 7
		e13PerClient = 16
		e14Ns = append(e14Ns, 65536)
		e16N = 8192
	}
	return []Experiment{
		{"E1", func() *Table { return E1CoreTreewidth(7) }},
		{"E2", func() *Table { return E2DominationWidth(5) }},
		{"E3", func() *Table { return E3BoundedDW(e3Max, 24) }},
		{"E4", func() *Table { return E4BranchTreewidth(7, 24) }},
		{"E5", func() *Table { return E5CliqueReduction([]int{2, 3}, []int{6, 10, 14}, 42) }},
		{"E6", func() *Table { return E6PebbleVsHom([]int{3, 4, 5}, 15) }},
		{"E7", func() *Table { return E7DataScaling(3, []int{12, 24, 48, 96, 192}) }},
		{"E8", func() *Table { return E8BatchEval(3, 24, workers) }},
		{"E9", func() *Table { return E9Enumeration([]int{64, 128, 256}, workers) }},
		{"E10", func() *Table { return E10PreparedVsOneShot([]int{64, 128, 256}, 32) }},
		{"E11", func() *Table { return E11FrozenBackend([]int{1024, 4096, 16384}, 3) }},
		{"E12", func() *Table { return E12ShardedBackend([]int{4096, 16384}, shardCounts, 3) }},
		{"E13", func() *Table { return E13Serving(128, e13PerClient, workers, []int{1, 4, 16}, 8, 64) }},
		{"E14", func() *Table { return E14SnapshotColdStart(e14Ns) }},
		{"E15", func() *Table { return E15Ingest(e14Ns, workers) }},
		{"E16", func() *Table { return E16Planner(e16N, 4) }},
		{"E17", func() *Table { return E17FilterPushdown(e16N) }},
	}
}

// Suite runs the experiment suite. With full=false the sweeps stop
// where every row completes in at most a few seconds; full=true
// extends E3 into the regime where the natural algorithm needs tens of
// seconds per instance (the point of the experiment).
func Suite(full bool) []*Table {
	return SuiteWorkers(full, 4)
}

// SuiteWorkers is Suite with an explicit worker count for the batched
// (E8) and enumeration (E9) experiments.
func SuiteWorkers(full bool, workers int) []*Table {
	specs := Experiments(full, workers)
	out := make([]*Table, len(specs))
	for i, s := range specs {
		out[i] = s.Run()
	}
	return out
}
