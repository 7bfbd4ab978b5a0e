package core

import (
	"context"
	"slices"
	"sort"
	"sync"

	"wdsparql/internal/hom"
	"wdsparql/internal/ptree"
	"wdsparql/internal/rdf"
	"wdsparql/internal/sparql"
)

// This file is the ID-native, compiled, streaming counterpart of
// topdown.go: the same top-down procedure behind Lemma 1, but with the
// whole forest compiled once against the graph (per-node RowPrograms
// over one shared SlotLayout) and partial solutions carried as flat
// rdf.Rows instead of string mappings. Extensions through a child bind
// slots in place and are undone on backtrack; per-child solution sets
// are combined slot-wise (the cross product of the string pipeline,
// without any map unions); and results stream through a pull-based
// yield so callers can stop after a limit without materialising ⟦T⟧G.
// EnumerateTopDownForest and Count are decode-at-the-boundary shims
// over this pipeline; EnumerateTopDown keeps the original string
// implementation as the cross-validation reference and perf baseline.

// compiledNode is one wdPT node compiled for row enumeration.
type compiledNode struct {
	idx      int // dense index across the whole forest compilation
	prog     *hom.RowProgram
	children []*compiledNode
	// subSlots are the fresh slots of the subtree rooted here — its
	// variables minus the entry-bound ones (accumulated ancestor
	// variables), sorted ascending: exactly the slots a maximal
	// extension through this child may bind beyond the current partial
	// solution, and the stride of the node's solution arena. A child
	// whose variables are all entry-bound has stride 0 and still up to
	// one solution.
	subSlots []int32
	// deferred holds the node's filter conjuncts that could not be
	// pushed into prog (they reach into optional descendants, or
	// pushdown is disabled), evaluated against each emitted solution
	// of this node's subtree. Local conjuncts live inside prog instead
	// and never appear here.
	deferred []*hom.FilterExpr
	// filterNotes renders every filter conjunct of the node for
	// explain output, marked [pushed] or [deferred].
	filterNotes []string
}

// ForestProgram is a wdPF compiled for repeated row enumeration
// against one graph. The program is immutable after CompileForest and
// safe for concurrent use: every enumeration (and every parallel
// worker) runs on its own enumState.
type ForestProgram struct {
	g      *rdf.Graph
	layout *rdf.SlotLayout
	roots  []*compiledNode
	nodes  int
	noPush bool // compile-time switch: keep every filter deferred

	// Per-execution search tuning, attached to every searcher a state
	// creates; set through Tuned, zero values mean the heuristic
	// pre-planner behaviour. One execution uses one mode for all its
	// searchers — the SplitTop/RunOn consistency the parallel
	// enumeration needs.
	mode  hom.SearchMode
	slack int
	stats *hom.SearchStats

	// Output shaping, set through Project: the projected layout, the
	// full-layout slot behind each output slot (-1: never bound), and
	// whether the output deduplicates. nil outLayout = raw full rows.
	outLayout *rdf.SlotLayout
	projSlots []int32
	distinct  bool
}

// Tuned returns a view of the program with the given search tuning:
// pattern-selection mode, strict-mode slack factor (≤ 0 selects the
// default) and optional effort counters (sequential executions only —
// the counters are unsynchronised). The view shares all compiled
// state with fp; compiling once and tuning per execution is the
// intended pattern.
func (fp *ForestProgram) Tuned(mode hom.SearchMode, slack int, stats *hom.SearchStats) *ForestProgram {
	out := *fp
	out.mode, out.slack, out.stats = mode, slack, stats
	return &out
}

// CompileOpts carries compile-time switches for CompileForestOpts.
type CompileOpts struct {
	// NoFilterPushdown keeps every FILTER conjunct at its node's
	// subtree emit point instead of pushing local conjuncts into the
	// node's search. Streams are identical either way (pushdown only
	// prunes earlier); the switch exists for ablation and
	// cross-validation.
	NoFilterPushdown bool
}

// CompileForest compiles every tree of the forest against the graph,
// assigning all forest variables dense slots in one shared layout (so
// rows of different trees dedup in a single key space).
func CompileForest(f ptree.Forest, g *rdf.Graph) *ForestProgram {
	return CompileForestOpts(f, g, CompileOpts{})
}

// CompileForestOpts is CompileForest with compile-time switches.
func CompileForestOpts(f ptree.Forest, g *rdf.Graph, opts CompileOpts) *ForestProgram {
	fp := &ForestProgram{g: g, layout: rdf.NewSlotLayout(), noPush: opts.NoFilterPushdown}
	for _, t := range f {
		fp.roots = append(fp.roots, fp.compileNode(t.Root, nil))
	}
	return fp
}

// CompileTree compiles a single tree (a one-tree forest program).
func CompileTree(t *ptree.Tree, g *rdf.Graph) *ForestProgram {
	return CompileForest(ptree.Forest{t}, g)
}

// compileNode compiles one wdPT node. entry lists the layout slots
// bound before any search of this node starts — the accumulated
// ancestor variables — which seed the node's compile-time join plan.
//
// Filter conjuncts split by scope: a conjunct whose variables all lie
// in entry ∪ vars(pat(n)) is fully bound the moment the node's own
// search completes, so it is pushed into the RowProgram (evaluated at
// bind time, pruning before recursion) — before planning, so equality
// restrictions sharpen the join-order estimates. Conjuncts reaching
// into optional descendants defer to the subtree's emit point, and
// lower only after the children are compiled, when their variables
// are interned.
func (fp *ForestProgram) compileNode(n *ptree.Node, entry []int32) *compiledNode {
	cn := &compiledNode{
		idx:  fp.nodes,
		prog: hom.CompileRowProgram(n.Pattern, fp.g, fp.layout),
	}
	fp.nodes++
	slots := map[int32]bool{}
	for _, v := range n.Vars() {
		slots[int32(fp.layout.Intern(v.Value))] = true
	}
	var deferredExprs []sparql.Expr
	if len(n.Filters) > 0 {
		scope := map[string]bool{}
		for _, s := range entry {
			scope[fp.layout.Name(int(s))] = true
		}
		for _, v := range n.Vars() {
			scope[v.Value] = true
		}
		for _, f := range n.Filters {
			local := true
			for _, v := range sparql.ExprVars(f) {
				if !scope[v.Value] {
					local = false
					break
				}
			}
			if local && !fp.noPush {
				cn.prog.AttachFilter(compileFilterExpr(f, fp.layout, fp.g.Dict()))
				cn.filterNotes = append(cn.filterNotes, f.String()+" [pushed]")
			} else {
				deferredExprs = append(deferredExprs, f)
				cn.filterNotes = append(cn.filterNotes, f.String()+" [deferred]")
			}
		}
	}
	cn.prog.BuildPlan(entry)
	// Entry-bound slots of the children: everything bound on arrival
	// here plus this node's own variables. Well-designedness makes
	// this exact — a variable shared between a child's subtree and
	// anything outside it (an ancestor or an earlier sibling's
	// subtree) must occur at this node or above, so accumulating down
	// the tree captures every slot a child's search can see bound.
	childEntry := entry
	if len(slots) > 0 {
		own := make([]int32, 0, len(slots))
		for s := range slots {
			if !slices.Contains(entry, s) {
				own = append(own, s)
			}
		}
		slices.Sort(own)
		childEntry = append(append(make([]int32, 0, len(entry)+len(own)), entry...), own...)
	}
	for _, c := range n.Children {
		cc := fp.compileNode(c, childEntry)
		cn.children = append(cn.children, cc)
		for _, s := range cc.subSlots {
			slots[s] = true
		}
	}
	for _, f := range deferredExprs {
		cn.deferred = append(cn.deferred, compileFilterExpr(f, fp.layout, fp.g.Dict()))
	}
	cn.subSlots = make([]int32, 0, len(slots))
	for s := range slots {
		if !slices.Contains(entry, s) {
			cn.subSlots = append(cn.subSlots, s)
		}
	}
	slices.Sort(cn.subSlots)
	return cn
}

// Layout returns the layout of the rows the program streams: the
// projected layout after Project, the full forest layout otherwise.
func (fp *ForestProgram) Layout() *rdf.SlotLayout {
	if fp.outLayout != nil {
		return fp.outLayout
	}
	return fp.layout
}

// FullLayout returns the forest's full slot layout regardless of
// projection (complete after compilation).
func (fp *ForestProgram) FullLayout() *rdf.SlotLayout { return fp.layout }

// enumState is the per-enumeration scratch: one RowSearcher per node,
// the single row the partial solution lives in, and one solution
// arena per node, allocated on the first childSolutions call so an
// enumeration that never reaches a child pays nothing for them. stop,
// when non-nil, is polled at every yield boundary; once it reports
// true the whole enumeration unwinds as if yield had returned false —
// this is how context cancellation reaches the innermost recursion.
// Every enumeration, and every parallel worker, owns its state.
type enumState struct {
	fp        *ForestProgram
	searchers []*hom.RowSearcher
	row       rdf.Row
	stop      func() bool
	sols      []childArena // indexed by compiledNode.idx
}

// childArena holds one node's solutions under the current row: n
// solutions of len(subSlots) values each, back to back in vals.
// collect is the node's search callback appending to it, built once
// per state so that repeated childSolutions calls allocate nothing.
type childArena struct {
	vals    []rdf.TermID
	n       int
	collect func() bool
}

func (st *enumState) stopped() bool { return st.stop != nil && st.stop() }

// ctxStop returns the stop predicate for ctx: a non-blocking receive
// on ctx.Done(), captured once, so a poll takes no lock (ctx.Err()
// takes the context's mutex on every call). It returns nil when ctx
// can never be cancelled (context.Background and friends), keeping the
// uncancellable path free of per-yield checks.
func ctxStop(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

func (fp *ForestProgram) newState() *enumState {
	st := &enumState{
		fp:        fp,
		searchers: make([]*hom.RowSearcher, fp.nodes),
		row:       fp.layout.NewRow(),
	}
	var walk func(n *compiledNode)
	walk = func(n *compiledNode) {
		st.searchers[n.idx] = n.prog.NewSearcher()
		st.searchers[n.idx].Tune(fp.mode, fp.slack, fp.stats)
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range fp.roots {
		walk(r)
	}
	return st
}

// enumerateTree streams ⟦T⟧G for one tree: every maximal extension of
// every root homomorphism. It reports whether enumeration ran to
// exhaustion (false: yield stopped it). The row passed to yield is the
// state's working row — valid only during the call.
//
// For trees satisfying the wdPT connectivity condition (in particular
// everything ptree.WDPF produces) the streamed rows are pairwise
// distinct: root homomorphisms differ on root slots, extensions of one
// base through a child differ on the child's fresh slots, and distinct
// children bind disjoint fresh slots.
func (st *enumState) enumerateTree(root *compiledNode, yield func(rdf.Row) bool) bool {
	st.fp.layout.Reset(st.row)
	return st.searchers[root.idx].Run(st.row, func() bool {
		return st.extendThrough(root.children, 0, st.deferredFiltered(root, yield))
	})
}

// deferredFiltered wraps yield with the node's deferred filter check;
// nodes without deferred filters pay nothing.
func (st *enumState) deferredFiltered(n *compiledNode, yield func(rdf.Row) bool) func(rdf.Row) bool {
	if len(n.deferred) == 0 {
		return yield
	}
	return func(r rdf.Row) bool {
		if !st.passesDeferred(n) {
			return true // row fails a filter: skip, keep streaming
		}
		return yield(r)
	}
}

// extendThrough extends the current row maximally through the children
// cs[i:]: a child with no compatible extension is skipped (it never
// blocks maximality), a child with extensions MUST be extended, and
// per-child solution sets combine by cross product — realised here by
// binding each solution's slots in place and recursing to the next
// child.
func (st *enumState) extendThrough(cs []*compiledNode, i int, yield func(rdf.Row) bool) bool {
	if i == len(cs) {
		if st.stopped() {
			return false
		}
		return yield(st.row)
	}
	c := cs[i]
	vals, n := st.childSolutions(c)
	if n == 0 {
		return st.extendThrough(cs, i+1, yield)
	}
	row, w := st.row, len(c.subSlots)
	for k := 0; k < n; k++ {
		sol := vals[k*w : k*w+w]
		// Bind the slots this solution adds over the current row. By
		// connectivity the solutions of later children touch disjoint
		// fresh slots, so binding is the slot-wise cross product.
		for j, s := range c.subSlots {
			if sol[j] != rdf.Unbound && row[s] == rdf.Unbound {
				row[s] = sol[j]
			} else {
				sol[j] = rdf.Unbound // mark: not bound by this application
			}
		}
		more := st.extendThrough(cs, i+1, yield)
		for j, s := range c.subSlots {
			if sol[j] != rdf.Unbound {
				row[s] = rdf.Unbound
			}
		}
		if !more {
			return false
		}
	}
	return true
}

// childSolutions materialises the maximal solutions contributed by
// child c under the current row: for each homomorphic extension ν of
// pat(c) (bound slots act as constants), the recursive maximal
// extensions through c's children. Each solution is the snapshot of
// the row's values over c.subSlots, appended to c's arena; it returns
// the arena and the solution count (the count, not the length, since
// stride 0 still admits one solution). The next call for c resets the
// arena, which is safe: extendThrough consumes c's solutions fully
// before c's parent can search again — the only way back here — and
// c's descendants are other nodes with arenas of their own.
func (st *enumState) childSolutions(c *compiledNode) ([]rdf.TermID, int) {
	if st.sols == nil {
		st.sols = make([]childArena, st.fp.nodes)
	}
	a := &st.sols[c.idx]
	if a.collect == nil {
		snap := st.deferredFiltered(c, func(rdf.Row) bool {
			for _, s := range c.subSlots {
				a.vals = append(a.vals, st.row[s])
			}
			a.n++
			return true
		})
		// The inner yield always continues, so extendThrough returns
		// false only when the state has been stopped — propagate that
		// so the searcher unwinds instead of materialising the rest.
		a.collect = func() bool { return st.extendThrough(c.children, 0, snap) }
	}
	a.vals, a.n = a.vals[:0], 0
	st.searchers[c.idx].Run(st.row, a.collect)
	return a.vals, a.n
}

// Rows streams ⟦F⟧G: every solution row exactly once, until yield
// returns false. Rows passed to yield are only valid during the call
// (copy to retain). Single-tree forests stream with no dedup state;
// multi-tree forests filter duplicates across trees through an
// IDMappingSet of the rows already emitted.
func (fp *ForestProgram) Rows(yield func(rdf.Row) bool) {
	fp.RowsContext(context.Background(), yield)
}

// RowsContext is Rows with cooperative cancellation: ctx.Done() is
// captured once and polled with a non-blocking receive at every yield
// boundary, so cancelling the context stops the enumeration as
// promptly as yield returning false would, without taking the
// context's lock per row. It returns ctx.Err(), i.e. nil on a run to
// exhaustion or an early stop through yield, and the cancellation
// cause when the context ended the stream. Contexts that can never be
// cancelled add no per-row check at all.
func (fp *ForestProgram) RowsContext(ctx context.Context, yield func(rdf.Row) bool) error {
	st := fp.newState()
	st.stop = ctxStop(ctx)
	out := fp.wrapOutput(yield)
	if len(fp.roots) == 1 {
		st.enumerateTree(fp.roots[0], out)
		return ctx.Err()
	}
	// Cross-tree dedup on full rows; redundant (and skipped) under
	// DISTINCT, whose projected dedup subsumes it.
	var seen *rdf.IDMappingSet
	if !fp.distinct {
		seen = rdf.NewIDMappingSet(fp.layout, fp.g.Dict().NumIRIs())
	}
	for _, root := range fp.roots {
		if !st.enumerateTree(root, func(r rdf.Row) bool {
			if seen != nil && !seen.Add(r) {
				return true // duplicate across trees
			}
			return out(r)
		}) {
			break
		}
	}
	return ctx.Err()
}

// EnumerateSet materialises ⟦F⟧G as a deduplicated row set (over the
// projected layout when the program carries a projection).
func (fp *ForestProgram) EnumerateSet() *rdf.IDMappingSet {
	out := rdf.NewIDMappingSet(fp.Layout(), fp.g.Dict().NumIRIs())
	st := fp.newState()
	emit := fp.wrapOutput(func(r rdf.Row) bool {
		out.Add(r)
		return true
	})
	for _, root := range fp.roots {
		st.enumerateTree(root, emit)
	}
	return out
}

// RowsParallel streams ⟦F⟧G with the enumeration work partitioned on a
// worker pool of the given size. Work items are the top-level
// candidate triples of each root search (hom.RowSearcher.SplitTop):
// one item covers everything one candidate leads to — the rest of the
// root homomorphism search plus all maximal extensions through the
// children — so, unlike the earlier root-row partitioning, the root
// search itself runs on the pool instead of being materialised
// sequentially upfront. On a sharded graph items are handed to the
// pool grouped by the shard of their candidate triple (the shard is a
// pure function of the candidate's subject), so workers sweep one
// shard's data at a time: real data partitioning, and the exact seam a
// multi-node deployment would cut.
//
// The stream is identical to RowsContext — same rows, same order —
// because completed work items are merged in their sequential
// (candidate) order, whatever order the pool processed them in;
// workers ≤ 1 degrades to the sequential path. yield runs on the
// calling goroutine only. Cancelling ctx (or yield returning false)
// stops every worker at its next yield boundary, and RowsParallel does
// not return before all workers have exited, so an early stop leaks no
// goroutines. The returned error is the caller's ctx.Err(): nil for
// exhaustion or a yield-initiated stop, the cancellation cause
// otherwise.
func (fp *ForestProgram) RowsParallel(ctx context.Context, workers int, yield func(rdf.Row) bool) error {
	if workers <= 1 {
		return fp.RowsContext(ctx, yield)
	}
	// inner is cancelled either by the caller's ctx or by yield ending
	// the stream; every worker polls its Done channel at yield
	// boundaries.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := ctxStop(inner)

	// Split every root search at its top-level candidates. Trees whose
	// root program has no branch point (an empty root pattern yields
	// exactly the empty extension) become one whole-tree item.
	type item struct {
		root  *compiledNode
		cand  rdf.IDTriple
		whole bool // run the entire tree sequentially
		shard int
	}
	var items []item
	st := fp.newState()
	base := fp.layout.NewRow()
	for _, root := range fp.roots {
		cands, ok := st.searchers[root.idx].SplitTop(base)
		if !ok {
			items = append(items, item{root: root, whole: true})
			continue
		}
		for _, c := range cands {
			items = append(items, item{root: root, cand: c, shard: fp.g.ShardOf(c)})
		}
	}
	// Processing order: shard-grouped on a sharded graph (stable, so
	// within a shard items keep candidate order), plain candidate order
	// otherwise. The merge below is indexed by item, not by processing
	// order, so scheduling never leaks into the stream.
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	if fp.g.ShardCount() > 1 {
		sort.SliceStable(order, func(a, b int) bool { return items[order[a]].shard < items[order[b]].shard })
	}
	if workers > len(items) {
		workers = len(items)
	}
	// Each item's rows land back to back in one flat batch of stride
	// w; n counts them, since a zero-width layout still has rows.
	type batch struct {
		vals []rdf.TermID
		n    int
	}
	w := fp.layout.Width()
	results := make([]batch, len(items))
	ready := make([]chan struct{}, len(items))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := fp.newState()
			ws.stop = stop
			var local batch
			emit := func(r rdf.Row) bool {
				local.vals = append(local.vals, r...)
				local.n++
				return true
			}
			for i := range next {
				it := items[i]
				local = batch{}
				if it.whole {
					ws.enumerateTree(it.root, emit)
				} else {
					fp.layout.Reset(ws.row)
					ws.searchers[it.root.idx].RunOn(ws.row, it.cand, func() bool {
						return ws.extendThrough(it.root.children, 0, ws.deferredFiltered(it.root, emit))
					})
				}
				results[i] = local
				close(ready[i])
			}
		}()
	}
	// The feeder gives up (closing next, which drains the pool) as soon
	// as the run is cancelled; until then it hands out items in
	// processing order.
	go func() {
		defer close(next)
		for _, i := range order {
			select {
			case next <- i:
			case <-inner.Done():
				return
			}
		}
	}()
	out := fp.wrapOutput(yield)
	var seen *rdf.IDMappingSet
	if len(fp.roots) > 1 && !fp.distinct {
		seen = rdf.NewIDMappingSet(fp.layout, fp.g.Dict().NumIRIs())
	}
merge:
	for i := range items {
		select {
		case <-ready[i]:
		case <-inner.Done():
			break merge
		}
		b := results[i]
		for k := 0; k < b.n; k++ {
			r := rdf.Row(b.vals[k*w : k*w+w : k*w+w])
			if seen != nil && !seen.Add(r) {
				continue // duplicate across trees
			}
			if !out(r) {
				break merge
			}
		}
		results[i] = batch{} // release the merged batch
	}
	cancel()
	wg.Wait()
	return ctx.Err()
}

// EnumerateParallel materialises ⟦F⟧G with the per-tree enumeration
// work partitioned across root-homomorphism rows on a worker pool.
// workers ≤ 1 degrades to EnumerateSet. The result is identical to
// EnumerateSet, including insertion order (work items are merged in
// their sequential order).
func (fp *ForestProgram) EnumerateParallel(workers int) *rdf.IDMappingSet {
	out := rdf.NewIDMappingSet(fp.Layout(), fp.g.Dict().NumIRIs())
	fp.RowsParallel(context.Background(), workers, func(r rdf.Row) bool {
		out.Add(r)
		return true
	})
	return out
}

// EnumerateTopDownID computes ⟦T⟧G as rows by the compiled top-down
// procedure; the returned set carries the tree's slot layout.
func EnumerateTopDownID(t *ptree.Tree, g *rdf.Graph) *rdf.IDMappingSet {
	return CompileTree(t, g).EnumerateSet()
}

// EnumerateTopDownForestID computes ⟦F⟧G as rows.
func EnumerateTopDownForestID(f ptree.Forest, g *rdf.Graph) *rdf.IDMappingSet {
	return CompileForest(f, g).EnumerateSet()
}

// EnumerateTopDownParallel computes ⟦F⟧G as rows on a worker pool,
// partitioned across root-homomorphism rows.
func EnumerateTopDownParallel(f ptree.Forest, g *rdf.Graph, workers int) *rdf.IDMappingSet {
	return CompileForest(f, g).EnumerateParallel(workers)
}
