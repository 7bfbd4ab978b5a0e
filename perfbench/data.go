package main

import (
	"bufio"
	"io"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"

	"wdsparql/internal/rdf"
)

// The benchmark graph: one seeded, generated RDF graph of about 0.93M
// triples whose predicate frequencies are skewed. A large "social"
// part (knows, likes, type, name, worksAt, category) carries the
// anchored lookups; a small "rare" part over four predicates r0..r3
// (a random graph of out-degree 2 per predicate, the E9 shape) carries
// the heavy scans, whose result sizes stay bounded because the rare
// predicates are small.

// Graph shape parameters.
const (
	nEnt     = 100_000 // entities e<i>: subjects of the social part
	nItem    = 50_000  // items i<j>: objects of likes
	nClass   = 20      // classes c<k>: objects of type
	nCat     = 200     // categories cat<k>: objects of category
	nOrg     = 2_000   // organisations o<k>: objects of worksAt
	nKnows   = 3       // knows edges per entity
	nLikes   = 3       // likes edges per entity
	nRareV   = 3_000   // vertices of the rare part (entities e0..e2999)
	zipfS    = 1.1     // popularity skew of anchors and targets
	zipfV    = 1.0
	worksPct = 50    // percentage of entities with a worksAt edge
	writeHot = 1_000 // live writes go to this many most popular anchors
)

// Triple is one ground triple of the generated data, as strings.
type Triple struct{ S, P, O string }

func ent(i uint64) string  { return "e" + strconv.FormatUint(i, 10) }
func item(i uint64) string { return "i" + strconv.FormatUint(i, 10) }

// newRand returns the benchmark's PRNG for one purpose: every stream
// derives from the seed and a fixed stream tag, so adding a draw to
// one stream never shifts another.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// zipf draws from a Zipf distribution over [0, n): small values are
// popular. Popular ranks are spread over the ID space by a fixed
// seeded permutation so that popularity is not correlated with the
// rare part (which lives on the lowest IDs).
type zipf struct {
	z    *rand.Zipf
	perm []uint32
}

func newZipf(r *rand.Rand, n int, permSeed uint64) *zipf {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	pr := newRand(permSeed, 99)
	pr.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &zipf{z: rand.NewZipf(r, zipfS, zipfV, uint64(n-1)), perm: perm}
}

func (z *zipf) next() uint64 { return uint64(z.perm[z.z.Uint64()]) }

// GenGraph returns the benchmark graph for a seed as a triple list in
// a deterministic order (duplicates possible; loaders drop them).
func GenGraph(seed uint64) []Triple {
	r := newRand(seed, 1)
	entPop := newZipf(r, nEnt, seed)
	itemPop := newZipf(r, nItem, seed+1)
	out := make([]Triple, 0, 940_000)
	for i := uint64(0); i < nEnt; i++ {
		e := ent(i)
		out = append(out,
			Triple{e, "type", "c" + strconv.Itoa(int(r.IntN(nClass)*r.IntN(nClass)/nClass))},
			Triple{e, "name", "n" + strconv.FormatUint(i, 10)})
		for k := 0; k < nKnows; k++ {
			out = append(out, Triple{e, "knows", ent(entPop.next())})
		}
		for k := 0; k < nLikes; k++ {
			out = append(out, Triple{e, "likes", item(itemPop.next())})
		}
		if r.IntN(100) < worksPct {
			out = append(out, Triple{e, "worksAt", "o" + strconv.Itoa(r.IntN(nOrg))})
		}
	}
	for j := uint64(0); j < nItem; j++ {
		out = append(out, Triple{item(j), "category", "cat" + strconv.Itoa(r.IntN(nCat))})
	}
	for k := 0; k < nOrg; k++ {
		o := "o" + strconv.Itoa(k)
		out = append(out, Triple{o, "name", "on" + strconv.Itoa(k)})
	}
	// Every rare vertex gets exactly two distinct out-neighbours per
	// rare predicate, so the scan queries' result sizes (and hence the
	// work per scan) barely move from seed to seed.
	for p := 0; p < 4; p++ {
		pred := "r" + strconv.Itoa(p)
		for v := uint64(0); v < nRareV; v++ {
			first := r.IntN(nRareV)
			second := (first + 1 + r.IntN(nRareV-1)) % nRareV
			out = append(out, Triple{ent(v), pred, ent(uint64(first))}, Triple{ent(v), pred, ent(uint64(second))})
		}
	}
	return out
}

// WriteNT writes triples in the N-Triples subset wdserve loads.
func WriteNT(w io.Writer, ts []Triple) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, t := range ts {
		bw.WriteString(t.S)
		bw.WriteByte(' ')
		bw.WriteString(t.P)
		bw.WriteByte(' ')
		bw.WriteString(t.O)
		bw.WriteString(" .\n")
	}
	return bw.Flush()
}

// writeNTFile writes triples to path.
func writeNTFile(path string, ts []Triple) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteNT(f, ts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// genIndex is the reference side's view of the data: every triple
// tagged with the write generation that added it (0 for the base,
// b for the b-th /ingest batch), indexed by subject. It answers
// "which triples does an anchored query's answer depend on" without
// building the full graph (see Neighbourhood).
type genIndex struct {
	bySubj map[string][]genTriple
	byPred map[string][]genTriple
}

type genTriple struct {
	t   Triple
	gen int
}

func newGenIndex(base []Triple) *genIndex {
	ix := &genIndex{bySubj: make(map[string][]genTriple, nEnt+nItem+nOrg), byPred: map[string][]genTriple{}}
	for _, t := range base {
		ix.add(t, 0)
	}
	return ix
}

func (ix *genIndex) add(t Triple, gen int) {
	gt := genTriple{t, gen}
	ix.bySubj[t.S] = append(ix.bySubj[t.S], gt)
	if len(t.P) > 0 && t.P[0] == 'r' {
		ix.byPred[t.P] = append(ix.byPred[t.P], gt)
	}
}

// Neighbourhood returns the graph of the triples visible at
// generation gen whose subject lies within depth forward hops of the
// anchor. An anchored query — every triple pattern's subject is the
// anchor or a variable bound as an object by a pattern one hop
// closer — has the same answer on this graph as on the full graph,
// because every homomorphism of every subpattern lands in it (the
// package tests check this against full-graph evaluation).
func (ix *genIndex) Neighbourhood(anchor string, depth, gen int) *rdf.Graph {
	g := rdf.NewGraph()
	frontier := []string{anchor}
	seen := map[string]bool{anchor: true}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []string
		for _, s := range frontier {
			for _, gt := range ix.bySubj[s] {
				if gt.gen > gen {
					continue
				}
				g.AddTriple(gt.t.S, gt.t.P, gt.t.O)
				if !seen[gt.t.O] {
					seen[gt.t.O] = true
					next = append(next, gt.t.O)
				}
			}
		}
		frontier = next
	}
	return g
}

// RareGraph returns the graph of the base triples over the rare
// predicates: the scan queries mention only those, and a query whose
// predicates are all constants has the same answer on the
// restriction of the graph to its predicates.
func (ix *genIndex) RareGraph() *rdf.Graph {
	g := rdf.NewGraph()
	preds := make([]string, 0, len(ix.byPred))
	for p := range ix.byPred {
		preds = append(preds, p)
	}
	slices.Sort(preds)
	for _, p := range preds {
		for _, gt := range ix.byPred[p] {
			if gt.gen == 0 {
				g.AddTriple(gt.t.S, gt.t.P, gt.t.O)
			}
		}
	}
	return g
}

// GenBatches returns the live workload's write batches: n batches of
// size triples each over the lookup predicates (never the rare ones,
// so the scan references stay fixed). Subjects are drawn uniformly
// from the writeHot most popular lookup anchors, so the hot anchors
// see their answers change while the run reads them, without any one
// anchor growing an unbounded fan-out.
func GenBatches(seed uint64, n, size int) [][]Triple {
	r := newRand(seed, 3)
	pop := newZipf(r, nEnt, seed)
	out := make([][]Triple, n)
	for b := range out {
		batch := make([]Triple, 0, size)
		for len(batch) < size {
			s := ent(uint64(pop.perm[r.IntN(writeHot)]))
			switch r.IntN(3) {
			case 0:
				batch = append(batch, Triple{s, "knows", ent(uint64(r.IntN(nEnt)))})
			case 1:
				batch = append(batch, Triple{s, "likes", item(uint64(r.IntN(nItem)))})
			default:
				batch = append(batch, Triple{s, "worksAt", "o" + strconv.Itoa(r.IntN(nOrg))})
			}
		}
		out[b] = batch
	}
	return out
}
