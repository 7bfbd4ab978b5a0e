package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"

	"wdsparql"
	"wdsparql/internal/core"
	"wdsparql/internal/hom"
	"wdsparql/internal/ingest"
	"wdsparql/internal/rdf"
	"wdsparql/internal/server"
	"wdsparql/internal/sparql"
)

// The traced run replays the workload's seeded request sequence
// in-process against the same data, twice: once untraced, timing only
// Server.Handler(), and once traced, calling each layer's public entry
// point under a span (name, start, end, parent, request id) kept in
// memory and written out at the end. Tracing lives in these files, not
// in the program. The per-layer metrics come from the traced pass;
// the tracing overhead is the traced pass's handler time over the
// untraced pass's.

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans relative to its creation time.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans), Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return t.spans[i].dur()
}

// selfTimes returns per span name the total and the self time: a
// span's duration minus what its child spans cover.
func (t *tracer) selfTimes() map[string][2]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string][2]float64{}
	for i, s := range t.spans {
		v := out[s.Name]
		v[0] += ms(s.dur())
		v[1] += ms(s.dur() - child[i])
		out[s.Name] = v
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scanWriter is an in-process http.ResponseWriter that scans the body
// exactly as the HTTP client does.
type scanWriter struct {
	h     http.Header
	code  int
	sc    bodyScanner
	bytes int
	ferr  error
}

func newScanWriter(req *Request) *scanWriter {
	return &scanWriter{h: http.Header{}, code: http.StatusOK, sc: newScanner(req.Format, req.Limit >= 0)}
}

func (w *scanWriter) Header() http.Header  { return w.h }
func (w *scanWriter) WriteHeader(code int) { w.code = code }
func (w *scanWriter) Flush()               {}
func (w *scanWriter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	if w.ferr == nil {
		w.ferr = w.sc.feed(b)
	}
	return len(b), nil
}

func (w *scanWriter) result() (Answer, []uint64, error) {
	if w.code != http.StatusOK {
		return Answer{}, nil, fmt.Errorf("status %d", w.code)
	}
	if w.ferr != nil {
		return Answer{}, nil, w.ferr
	}
	a, err := w.sc.finish()
	return a, w.sc.rows(), err
}

// step is one item of the replay: a read, or (live) a write batch.
type step struct {
	read  *Request
	batch int // write batch index; -1 for reads
}

// replaySteps picks the replayed prefix of the run's sequence: up to
// maxReplay reads in issue order, with the live writes interleaved at
// the ratio the measured window saw.
func replaySteps(cfg config, m *e2e) []step {
	const maxReplay = 4000
	var steps []step
	switch cfg.workload {
	case "scan":
		// Three rounds of every scan query.
		for i := 0; i < 3*len(scanQueries); i++ {
			steps = append(steps, step{read: &m.seqs[0][i], batch: -1})
		}
	default:
		n := min(len(m.reads), maxReplay)
		every := 0
		if len(m.writes) > 0 {
			every = max(1, n/len(m.writes))
		}
		b := 0
		for i := 0; i < n; i++ {
			steps = append(steps, step{read: &m.seqs[0][i], batch: -1})
			if every > 0 && (i+1)%every == 0 && b < len(m.writes) {
				steps = append(steps, step{batch: b})
				b++
			}
		}
	}
	return steps
}

// memAllocs reads the runtime's cumulative heap allocation counters.
func memAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// inproc is one in-process serving stack over the loaded data.
type inproc struct {
	eng    *wdsparql.Engine
	srv    *server.Server
	gen    int // write batches applied
	hits   uint64
	misses uint64
}

func newInproc(g *rdf.Graph) *inproc {
	p := &inproc{}
	p.swap(wdsparql.NewEngine(g, wdsparql.WithQueryCache(queryCache)))
	return p
}

// swap installs a new engine generation, keeping its predecessor's
// cache counters.
func (p *inproc) swap(e *wdsparql.Engine) {
	if p.eng != nil {
		st := p.eng.QueryCacheStats()
		p.hits += st.Hits
		p.misses += st.Misses
	}
	p.eng = e
	p.srv = server.New(server.Config{Engine: e, MaxConcurrent: gate, RefreezeAt: refreezeAt})
}

func (p *inproc) cacheStats() (hits, misses uint64) {
	st := p.eng.QueryCacheStats()
	return p.hits + st.Hits, p.misses + st.Misses
}

// serve runs one read through Server.Handler().
func (p *inproc) serve(req *Request) (*scanWriter, time.Duration) {
	w := newScanWriter(req)
	hr := httptest.NewRequest(http.MethodGet, req.Path, nil)
	t := time.Now()
	p.srv.Handler().ServeHTTP(w, hr)
	return w, time.Since(t)
}

// layerStats accumulates the traced pass's per-layer figures.
type layerStats struct {
	reads, misses, rows, bytes int
	parse, prepare, compile    time.Duration
	catalog, rowsT, decodeT    time.Duration
	handler, encode            time.Duration
	handlerLats                []time.Duration
	allocBytes, allocObjs      uint64
	search                     hom.SearchStats
	enumRows                   int64
	rootNodes                  int64
	rootT                      time.Duration
	applyFirst, applyLast      time.Duration
	refreeze                   []time.Duration
	wrong                      int
	decodeRows                 []rdf.Row // scratch: rows to decode
}

// traceRun performs the in-process replays and returns the per-layer
// metrics. m is this run's own measured window, whose latencies and
// generator figures the transport and generator metrics use.
func traceRun(cfg config, d *runData, m *e2e, r *refs, detail map[string]any) (map[string]metric, error) {
	var batches [][]Triple
	if cfg.workload == "live" {
		batches = GenBatches(cfg.seed, liveBatches(cfg), batchSize)
	}
	t := time.Now()
	f, err := os.Open(d.ntPath)
	if err != nil {
		return nil, err
	}
	shards := 1
	if cfg.workload == "live" {
		shards = liveShards
	}
	g, err := ingest.Load(f, ingest.Options{Shards: shards})
	f.Close()
	if err != nil {
		return nil, err
	}
	loadS := time.Since(t).Seconds()
	var snapMs float64
	if cfg.workload == "live" {
		t = time.Now()
		snap, err := rdf.LoadSnapshot(d.snapPath, rdf.SnapshotMmap)
		if err != nil {
			return nil, err
		}
		defer snap.Close()
		snapMs = ms(time.Since(t))
		g = snap.Graph()
	}
	steps := replaySteps(cfg, m)

	// Untraced pass: the handler alone.
	var untraced time.Duration
	p := newInproc(g)
	for _, st := range steps {
		if st.read == nil {
			p.apply(batches[st.batch])
			continue
		}
		_, took := p.serve(st.read)
		untraced += took
	}

	// Traced pass.
	tr := &tracer{t0: time.Now()}
	var ls layerStats
	p = newInproc(g)
	cache := newPrepCache()
	for i, st := range steps {
		if st.read == nil {
			traceWrite(tr, i, p, batches, st.batch, &ls)
			cache = newPrepCache() // prepared queries are per generation
			continue
		}
		if err := traceRead(tr, i, st.read, p, cache, r, &ls); err != nil {
			return nil, err
		}
	}
	hits, misses := p.cacheStats()
	overlay := p.eng.OverlayLen()
	if cfg.workload == "lookup" {
		// The write path, which lookup's replay never runs, measured
		// off to the side on the same data: a snapshot of the graph
		// written and loaded back, then the live workload's batches
		// applied under the server's re-freeze rule.
		snapPath := filepath.Join(d.dir, "side.wdsnap")
		if err := g.WriteSnapshot(snapPath); err != nil {
			return nil, err
		}
		t = time.Now()
		snap, err := rdf.LoadSnapshot(snapPath, rdf.SnapshotMmap)
		if err != nil {
			return nil, err
		}
		defer snap.Close()
		snapMs = ms(time.Since(t))
		w := newInproc(snap.Graph())
		side := GenBatches(cfg.seed, liveBatches(cfg), batchSize)
		for b := range side {
			traceWrite(tr, len(steps)+b, w, side, b, &ls)
		}
		overlay = w.eng.OverlayLen()
	}

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	perReq := func(x time.Duration) float64 { return float64(x.Microseconds()) / float64(max(ls.reads, 1)) }
	perMiss := func(x time.Duration) float64 {
		return float64(x.Nanoseconds()) / 1e3 / float64(max(ls.misses, 1))
	}
	perRow := func(x float64) float64 { return x / float64(max(ls.rows, 1)) }
	put("sparql.parse_us", perReq(ls.parse), "us")
	put("engine.prepare_us", perMiss(ls.prepare), "us")
	put("core.compile_us", perMiss(ls.compile), "us")
	put("rdf.catalog_us", perMiss(ls.catalog), "us")
	put("engine.qcache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	put("hom.nodes_per_query", float64(ls.search.Nodes)/float64(max(ls.reads, 1)), "count")
	put("hom.count_probes_per_query", float64(ls.search.CountProbes)/float64(max(ls.reads, 1)), "count")
	put("hom.memo_hit_ratio", float64(ls.search.MemoHits)/float64(max(ls.search.MemoHits+ls.search.CountProbes, 1)), "ratio")
	put("hom.rows_per_node", float64(ls.enumRows)/float64(max(ls.search.Nodes, 1)), "ratio")
	put("hom.ns_per_node", float64(ls.rootT.Nanoseconds())/float64(max(ls.rootNodes, 1)), "ns")
	put("core.rows_ms", ms(ls.rowsT)/float64(max(ls.reads, 1)), "ms")
	put("core.allocs_per_row", perRow(float64(ls.allocObjs)), "count")
	put("core.bytes_per_row", perRow(float64(ls.allocBytes)), "B")
	put("rdf.decode_ns_per_row", perRow(float64(ls.decodeT.Nanoseconds())), "ns")
	put("server.encode_ns_per_row", perRow(float64(max(ls.encode, 0).Nanoseconds())), "ns")
	put("server.bytes_per_row", perRow(float64(ls.bytes)), "B")
	lats := latencies(m.reads, m, -1)
	put("transport.us_per_req", float64((percentile(lats, 0.5)-percentile(ls.handlerLats, 0.5)).Nanoseconds())/1e3, "us")
	for k, v := range probes(p.eng.Graph(), steps) {
		out[k] = v
	}
	put("engine.apply_delta_first_ms", ms(ls.applyFirst), "ms")
	put("engine.apply_delta_ms", ms(ls.applyLast), "ms")
	var rf time.Duration
	for _, x := range ls.refreeze {
		rf += x
	}
	put("engine.refreeze_ms", ms(rf)/float64(max(len(ls.refreeze), 1)), "ms")
	put("rdf.overlay_len", float64(overlay), "count")
	put("ingest.load_s", loadS, "s")
	put("rdf.snapshot_load_ms", snapMs, "ms")
	countMs, err := countScans(p.eng)
	if err != nil {
		return nil, err
	}
	put("core.count_ms", countMs, "ms")
	put("server.shed", float64(m.stats.Shed), "count")
	put("server.peak_in_flight", float64(m.stats.PeakInFlight), "count")
	put("gen.late_p90_ms", ms(percentile(m.gen.late, 0.9)), "ms")
	put("gen.cpu_frac", m.gen.cpuFrac(), "ratio")
	put("trace.overhead_frac", ls.handler.Seconds()/untraced.Seconds()-1, "ratio")

	detail["trace_replayed_steps"] = len(steps)
	detail["trace_wrong_answers"] = ls.wrong
	detail["trace_layer_ms"] = tr.selfTimes()
	path := filepath.Join(cfg.work, "trace-"+cfg.workload+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	detail["trace_file"] = path
	if ls.wrong > 0 {
		return nil, fmt.Errorf("traced replay: %d wrong answers", ls.wrong)
	}
	return out, nil
}

// traceWrite applies write batch b under spans, mirroring POST /ingest:
// ApplyDelta, then a re-freeze once the overlay reaches refreezeAt.
func traceWrite(tr *tracer, i int, p *inproc, batches [][]Triple, b int, ls *layerStats) {
	root := tr.begin("write", i, -1)
	defer tr.end(root)
	sp := tr.begin("engine.apply_delta", i, root)
	ne := p.eng.ApplyDelta(toTriples(batches[b]))
	took := tr.end(sp)
	if b == 0 {
		ls.applyFirst = took
	}
	ls.applyLast = took
	if ne.OverlayLen() >= refreezeAt {
		sp = tr.begin("engine.refreeze", i, root)
		ne = ne.Refreeze()
		ls.refreeze = append(ls.refreeze, tr.end(sp))
	}
	p.swap(ne)
	p.gen++
}

// apply is the untraced write path, mirroring POST /ingest.
func (p *inproc) apply(batch []Triple) {
	ne := p.eng.ApplyDelta(toTriples(batch))
	if ne.OverlayLen() >= refreezeAt {
		ne = ne.Refreeze()
	}
	p.swap(ne)
	p.gen++
}

func toTriples(batch []Triple) []wdsparql.Triple {
	out := make([]wdsparql.Triple, len(batch))
	for i, t := range batch {
		out[i] = wdsparql.Triple{S: wdsparql.IRI(t.S), P: wdsparql.IRI(t.P), O: wdsparql.IRI(t.O)}
	}
	return out
}

// prepCache mirrors the engine's prepared-query LRU (same capacity,
// same policy), so the traced pass times Prepare exactly on the
// requests the server misses.
type prepCache struct {
	order []string
	q     map[string]*wdsparql.PreparedQuery
}

func newPrepCache() *prepCache { return &prepCache{q: map[string]*wdsparql.PreparedQuery{}} }

func (c *prepCache) get(text string) (*wdsparql.PreparedQuery, bool) {
	q, ok := c.q[text]
	if ok {
		i := slices.Index(c.order, text)
		c.order = append(slices.Delete(c.order, i, i+1), text)
	}
	return q, ok
}

func (c *prepCache) add(text string, q *wdsparql.PreparedQuery) {
	c.q[text] = q
	c.order = append(c.order, text)
	if len(c.order) > queryCache {
		delete(c.q, c.order[0])
		c.order = c.order[1:]
	}
}

// traceRead replays one read under spans: the handler as served, then
// each layer's entry point on its own.
func traceRead(tr *tracer, i int, req *Request, p *inproc, cache *prepCache, r *refs, ls *layerStats) error {
	ctx := context.Background()
	g := p.eng.Graph()
	root := tr.begin("request", i, -1)
	defer tr.end(root)

	sp := tr.begin("server.handler", i, root)
	w := newScanWriter(req)
	p.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, req.Path, nil))
	handler := tr.end(sp)
	ls.handler += handler
	ls.handlerLats = append(ls.handlerLats, handler)
	ans, rows, err := w.result()
	if err == nil {
		err = r.check(req, ans, rows, p.gen, p.gen)
	}
	if err != nil {
		ls.wrong++
	}
	ls.reads++
	ls.rows += ans.Rows
	ls.bytes += w.bytes

	sp = tr.begin("sparql.parse", i, root)
	pat, err := sparql.Parse(req.Text)
	parse := tr.end(sp)
	if err != nil {
		return err
	}
	ls.parse += parse
	var prepare time.Duration
	q, hit := cache.get(req.Text)
	if !hit {
		ls.misses++
		sp = tr.begin("engine.prepare", i, root)
		q, err = p.eng.Prepare(pat)
		prepare = tr.end(sp)
		if err != nil {
			return err
		}
		ls.prepare += prepare
		cache.add(req.Text, q)
		forest, err := wdsparql.ToForest(pat)
		if err != nil {
			return err
		}
		sp = tr.begin("core.compile", i, root)
		core.CompileForest(forest, g)
		ls.compile += tr.end(sp)
		// The catalog probes the planner may ask for: distinct values
		// under each constant predicate at its variable positions.
		sp = tr.begin("rdf.catalog", i, root)
		for _, t := range sparql.Triples(pat) {
			pid, ok := g.Dict().LookupIRI(t.P.Value)
			if !ok || t.P.IsVar() {
				continue
			}
			for pos, term := range []rdf.Term{t.S, t.O} {
				if term.IsVar() {
					g.DistinctUnderPredicate(pid, 2*pos)
				}
			}
		}
		ls.catalog += tr.end(sp)
	}

	var opts []wdsparql.ExecOption
	if req.Limit >= 0 {
		opts = append(opts, wdsparql.Limit(req.Limit))
	}
	b0, o0 := memAllocs()
	sp = tr.begin("core.rows", i, root)
	for range q.Rows(ctx, opts...) {
	}
	rowsT := tr.end(sp)
	b1, o1 := memAllocs()
	ls.rowsT += rowsT
	ls.allocBytes += b1 - b0
	ls.allocObjs += o1 - o0
	// The handler parses and prepares only on a miss; what it spends
	// beyond that and the row stream is admission, encode and HTTP.
	enc := handler - rowsT
	if !hit {
		enc -= parse + prepare
	}
	ls.encode += enc

	layout, dict := q.Layout(), g.Dict()
	ls.decodeRows = ls.decodeRows[:0]
	for row := range q.Rows(ctx, opts...) {
		ls.decodeRows = append(ls.decodeRows, slices.Clone(row))
	}
	sp = tr.begin("rdf.decode", i, root)
	for _, row := range ls.decodeRows {
		_ = layout.DecodeRow(dict, row)
	}
	ls.decodeT += tr.end(sp)

	// The search kernel's effort counters over the whole forest, and
	// its per-node cost on the root patterns alone.
	forest, err := wdsparql.ToForest(pat)
	if err != nil {
		return err
	}
	sp = tr.begin("hom.enumerate", i, root)
	var st hom.SearchStats
	prog := core.CompileForest(forest, g).Tuned(hom.ModePlanned, 0, &st)
	left := req.Limit
	prog.Rows(func(rdf.Row) bool {
		ls.enumRows++
		left--
		return left != 0
	})
	tr.end(sp)
	ls.search.Nodes += st.Nodes
	ls.search.CountProbes += st.CountProbes
	ls.search.MemoHits += st.MemoHits
	for _, t := range forest {
		layout := rdf.NewSlotLayout()
		s := hom.CompileRowProgramPlanned(t.Root.Pattern, g, layout, nil).NewSearcher()
		var rs hom.SearchStats
		s.Tune(hom.ModePlanned, 0, &rs)
		row := layout.NewRow()
		sp = tr.begin("hom.search", i, root)
		s.Run(row, func() bool { return true })
		ls.rootT += tr.end(sp)
		ls.rootNodes += rs.Nodes
	}
	return nil
}

// probes times the storage probes on the graph state the replay ended
// with: S on the replayed anchors, P on the rare predicates, SP on
// (anchor, knows), PO on (knows, anchor). probe_bytes.P is the heap
// allocated per P probe (a cross-shard or overlay merge copies).
func probes(g *rdf.Graph, steps []step) map[string]metric {
	d := g.Dict()
	v := [3]rdf.TermID{rdf.VarID(0), rdf.VarID(1), rdf.VarID(2)}
	knows, _ := d.LookupIRI("knows")
	var anchors []rdf.TermID
	for _, st := range steps {
		if st.read != nil && st.read.Anchor != "" {
			if id, ok := d.LookupIRI(st.read.Anchor); ok {
				anchors = append(anchors, id)
			}
		}
		if len(anchors) == 256 {
			break
		}
	}
	if len(anchors) == 0 {
		anchors = []rdf.TermID{0}
	}
	var preds []rdf.TermID
	for i := 0; i < 4; i++ {
		if id, ok := d.LookupIRI(fmt.Sprintf("r%d", i)); ok {
			preds = append(preds, id)
		}
	}
	shapes := map[string][]rdf.IDTriple{}
	for _, a := range anchors {
		shapes["S"] = append(shapes["S"], rdf.IDTriple{a, v[1], v[2]})
		shapes["SP"] = append(shapes["SP"], rdf.IDTriple{a, knows, v[2]})
		shapes["PO"] = append(shapes["PO"], rdf.IDTriple{v[0], knows, a})
	}
	for _, p := range preds {
		shapes["P"] = append(shapes["P"], rdf.IDTriple{v[0], p, v[2]})
	}
	out := map[string]metric{}
	for _, name := range []string{"S", "P", "SP", "PO"} {
		keys := shapes[name]
		var n int
		b0, _ := memAllocs()
		t := time.Now()
		for time.Since(t) < 30*time.Millisecond {
			for _, k := range keys {
				g.CandidatesID(k)
				n++
			}
		}
		el := time.Since(t)
		b1, _ := memAllocs()
		out["rdf.probe_ns."+name] = metric{float64(el.Nanoseconds()) / float64(n), "ns"}
		if name == "P" {
			out["rdf.probe_bytes.P"] = metric{float64(b1-b0) / float64(n), "B"}
		}
	}
	return out
}

// countScans times PreparedQuery.Count on each scan query.
func countScans(e *wdsparql.Engine) (float64, error) {
	var total time.Duration
	for _, sq := range scanQueries[:4] {
		q, err := e.PrepareText(sq.text)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		if _, err := q.Count(context.Background()); err != nil {
			return 0, err
		}
		total += time.Since(t)
	}
	return ms(total) / 4, nil
}
