package hom

import (
	"fmt"
	"math/rand"
	"testing"

	"wdsparql/internal/rdf"
)

// Property tests validating the solver against a brute-force oracle
// and the core computation against Proposition 1's guarantees.

// bruteAll enumerates every total assignment vars → dom(G) and
// returns those that map every pattern into g: the complete solution
// set, each homomorphism once. Exponential, only for tiny instances.
func bruteAll(pats []rdf.Triple, g *rdf.Graph) []rdf.Mapping {
	vars := rdf.VarsOf(pats)
	dom := g.Dom()
	assign := rdf.NewMapping()
	var out []rdf.Mapping
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			for _, p := range pats {
				if !g.Contains(assign.Apply(p)) {
					return
				}
			}
			out = append(out, assign.Clone())
			return
		}
		for _, d := range dom {
			assign[vars[i].Value] = d
			rec(i + 1)
		}
		delete(assign, vars[i].Value)
	}
	rec(0)
	return out
}

// bruteExists decides existence off the brute-force solution set.
func bruteExists(pats []rdf.Triple, g *rdf.Graph) bool {
	return len(bruteAll(pats, g)) > 0
}

// sameSolutions reports whether got lists exactly the mappings of
// want, each once (want is duplicate-free).
func sameSolutions(got, want []rdf.Mapping) bool {
	if len(got) != len(want) {
		return false
	}
	keys := make(map[string]bool, len(want))
	for _, m := range want {
		keys[m.Key()] = true
	}
	for _, m := range got {
		if !keys[m.Key()] {
			return false
		}
		delete(keys, m.Key())
	}
	return true
}

func randTinyInstance(rng *rand.Rand) ([]rdf.Triple, *rdf.Graph) {
	nvars := 1 + rng.Intn(3)
	var pats []rdf.Triple
	term := func() rdf.Term {
		if rng.Intn(4) == 0 {
			return rdf.IRI([]string{"a", "b"}[rng.Intn(2)])
		}
		return rdf.Var(fmt.Sprintf("v%d", rng.Intn(nvars)))
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		pats = append(pats, rdf.T(term(), rdf.IRI([]string{"p", "q"}[rng.Intn(2)]), term()))
	}
	g := rdf.NewGraph()
	nodes := []string{"a", "b", "c"}
	for i := 0; i < 1+rng.Intn(6); i++ {
		g.AddTriple(nodes[rng.Intn(3)], []string{"p", "q"}[rng.Intn(2)], nodes[rng.Intn(3)])
	}
	return pats, g
}

func TestQuickSolverAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		pats, g := randTinyInstance(rng)
		want := bruteExists(pats, g)
		if got := Exists(pats, g); got != want {
			t.Fatalf("trial %d: solver=%v brute=%v\npats=%v\nG=%s",
				trial, got, want, pats, rdf.FormatGraph(g))
		}
		if got := ExistsStaticOrder(pats, g); got != want {
			t.Fatalf("trial %d: static-order solver=%v brute=%v", trial, got, want)
		}
	}
}

func TestQuickFindAllMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		pats, g := randTinyInstance(rng)
		all := FindAll(pats, g, 0)
		// Every found mapping must be a homomorphism...
		for _, m := range all {
			for _, p := range pats {
				img := m.Apply(p)
				if !img.Ground() || !g.Contains(img) {
					t.Fatalf("trial %d: returned non-homomorphism %s", trial, m)
				}
			}
		}
		// ...and the solutions are exactly the brute-force set, each
		// once: sound, complete, duplicate-free.
		if want := bruteAll(pats, g); !sameSolutions(all, want) {
			t.Fatalf("trial %d: FindAll %v, brute force %v\npats=%v\nG=%s",
				trial, all, want, pats, rdf.FormatGraph(g))
		}
	}
}

func randTinyGTGraph(rng *rand.Rand) GTGraph {
	nvars := 2 + rng.Intn(4)
	var ts []rdf.Triple
	vt := func() rdf.Term { return rdf.Var(fmt.Sprintf("v%d", rng.Intn(nvars))) }
	for i := 0; i < 2+rng.Intn(4); i++ {
		ts = append(ts, rdf.T(vt(), rdf.IRI([]string{"p", "q"}[rng.Intn(2)]), vt()))
	}
	var x []rdf.Term
	if rng.Intn(2) == 0 {
		x = append(x, rdf.Var("v0"))
	}
	return NewGTGraph(NewTGraph(ts...), x)
}

// Proposition 1 consequences: Core(g) is a core, hom-equivalent to g,
// idempotent, and a subgraph of g.
func TestQuickCoreProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		g := randTinyGTGraph(rng)
		c := Core(g)
		if !c.S.SubsetOf(g.S) {
			t.Fatalf("trial %d: core not a subgraph", trial)
		}
		if !IsCore(c) {
			t.Fatalf("trial %d: Core produced a non-core: %s from %s", trial, c, g)
		}
		if !Equivalent(g, c) {
			t.Fatalf("trial %d: core not equivalent: %s vs %s", trial, g, c)
		}
		cc := Core(c)
		if !cc.S.Equal(c.S) {
			t.Fatalf("trial %d: Core not idempotent", trial)
		}
		// Distinguished variables must survive in the core whenever
		// they survive in some triple.
		for _, x := range g.X {
			found := false
			for _, v := range c.S.Vars() {
				if v == x {
					found = true
				}
			}
			if !found {
				// x ∈ vars(S) always (NewGTGraph drops others), and
				// homs fix x, so some triple mentioning x must remain.
				t.Fatalf("trial %d: distinguished %s vanished from core %s", trial, x, c)
			}
		}
	}
}

// Hom is reflexive and transitive (the paper uses transitivity of →
// throughout Section 3).
func TestQuickHomPreorder(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 120; trial++ {
		a := randTinyGTGraph(rng)
		if !Hom(a, a) {
			t.Fatalf("trial %d: → not reflexive on %s", trial, a)
		}
		b := randTinyGTGraph(rng)
		c := randTinyGTGraph(rng)
		// Align distinguished sets: transitivity is only stated for a
		// common X; use none for simplicity.
		a2 := NewGTGraph(a.S, nil)
		b2 := NewGTGraph(b.S, nil)
		c2 := NewGTGraph(c.S, nil)
		if Hom(a2, b2) && Hom(b2, c2) && !Hom(a2, c2) {
			t.Fatalf("trial %d: → not transitive", trial)
		}
	}
}

// CountSearchNodes agrees with Exists.
func TestCountSearchNodesAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 100; trial++ {
		pats, g := randTinyInstance(rng)
		found, nodes := CountSearchNodes(pats, g)
		if found != Exists(pats, g) {
			t.Fatalf("trial %d: CountSearchNodes disagrees", trial)
		}
		if nodes <= 0 {
			t.Fatalf("trial %d: nonpositive node count", trial)
		}
	}
}

// CountSearchNodes counts every recursion step of the search: each
// expanded node, each dead end, and the leaf of a found solution. The
// hand-worked instances pin that meaning (A1's "search nodes" column).
func TestCountSearchNodesPinned(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple("a", "p", "b")
	g.AddTriple("b", "p", "c")
	x, y, z, w := rdf.Var("x"), rdf.Var("y"), rdf.Var("z"), rdf.Var("w")
	p := rdf.IRI("p")
	cases := []struct {
		name  string
		pats  []rdf.Triple
		found bool
		nodes int
	}{
		// The search fails before expanding anything; the root counts.
		{"absent constant", []rdf.Triple{rdf.T(x, rdf.IRI("nowhere"), y)}, false, 1},
		// The root is itself the leaf of the empty homomorphism.
		{"empty pattern", nil, true, 1},
		// Root (tie on count 2: first pattern), x=a,y=b (then y p ?z has
		// one match), z=c leaf.
		{"chain of 2", []rdf.Triple{rdf.T(x, p, y), rdf.T(y, p, z)}, true, 3},
		// Root; x=a,y=b; z=c dies on (c p ?w); x=b,y=c dies on (c p ?z).
		{"path of 3 refuted", []rdf.Triple{rdf.T(x, p, y), rdf.T(y, p, z), rdf.T(z, p, w)}, false, 4},
	}
	for _, c := range cases {
		found, nodes := CountSearchNodes(c.pats, g)
		if found != c.found || nodes != c.nodes {
			t.Errorf("%s: CountSearchNodes = (%v, %d), want (%v, %d)", c.name, found, nodes, c.found, c.nodes)
		}
	}
}
