// Command wdload is the out-of-process benchmark of wdserve: it
// generates a seeded graph and request sequence, starts a real wdserve
// child on them, drives it over loopback HTTP, checks every answer
// against the compositional reference evaluator, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of an
// in-process traced replay) as one JSON line. See README.md.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	wdload -root <repo> -bin <dir> -workload lookup|scan|live -seed N -seconds S -trace 0|1
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"wdsparql/internal/ingest"
)

// Validity bounds on the generator itself: a run whose generator ran
// later than this, or used more of the machine than this, measured the
// generator and is reported invalid (exit status 3, no result line).
const (
	maxLateP90 = 5 * time.Millisecond
	maxGenCPU  = 0.5
)

// setups is how many times a run starts the server to take the median
// set-up time; the last start serves the measured window.
var setups = map[string]int{"lookup": 7, "scan": 7, "live": 11}

type config struct {
	root, bin, work string
	workload        string
	seed            uint64
	seconds         float64
	trace           bool
}

func main() {
	var cfg config
	var traceN int
	flag.StringVar(&cfg.root, "root", ".", "repository root (source digest)")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the wdserve binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for generated files")
	flag.StringVar(&cfg.workload, "workload", "", "lookup | scan | live")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&traceN, "trace", 0, "1: report per-layer metrics from a traced replay")
	flag.Parse()
	cfg.trace = traceN == 1
	if _, ok := setups[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "wdload: unknown workload %q (want lookup, scan or live)\n", cfg.workload)
		os.Exit(2)
	}
	res, err := run(cfg)
	if errors.Is(err, errInvalid) {
		fmt.Fprintln(os.Stderr, "wdload:", err)
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdload:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	_ = out.Encode(res.detail)
	_ = out.Encode(res.line)
}

var errInvalid = errors.New("invalid run")

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	detail map[string]any // provenance and secondary figures
	line   resultLine
}

// runData is everything generated for one run before any timing.
// The reference index is not kept: while the window runs the
// generator holds only the request sequences, so its own garbage
// collector has little to scan beside the server.
type runData struct {
	dir      string
	ntPath   string
	snapPath string
	triples  int      // base triples written
	args     []string // wdserve flags
	probe    Request  // the set-up probe
	want     Answer   // its reference answer on the base graph
	bodies   []string // live: the /ingest bodies
}

// liveBatches is the number of write batches a live run posts.
func liveBatches(cfg config) int { return int(cfg.seconds*batchRate) + 1 }

// indexFor regenerates a run's data from its seed and indexes it for
// the answer check, every live batch tagged with its generation.
func indexFor(cfg config) *genIndex {
	ix := newGenIndex(GenGraph(cfg.seed))
	if cfg.workload == "live" {
		for b, batch := range GenBatches(cfg.seed, liveBatches(cfg), batchSize) {
			for _, t := range batch {
				ix.add(t, b+1)
			}
		}
	}
	return ix
}

func prepare(cfg config) (*runData, error) {
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	d := &runData{dir: dir, ntPath: filepath.Join(dir, "graph.nt")}
	base := GenGraph(cfg.seed)
	d.triples = len(base)
	if err := writeNTFile(d.ntPath, base); err != nil {
		return d, err
	}
	common := []string{"-query-cache", strconv.Itoa(queryCache), "-gate", strconv.Itoa(gate)}
	switch cfg.workload {
	case "lookup":
		d.args = append([]string{"-data", d.ntPath}, common...)
		d.probe = LookupSequence(cfg.seed, cfg.seconds)[0]
	case "scan":
		d.args = append([]string{"-data", d.ntPath}, common...)
		d.probe = ScanSequence(0, 1)[0]
	case "live":
		for _, b := range GenBatches(cfg.seed, liveBatches(cfg), batchSize) {
			d.bodies = append(d.bodies, ntBody(b))
		}
		d.snapPath = filepath.Join(dir, "graph.wdsnap")
		if err := buildSnapshot(d.ntPath, d.snapPath); err != nil {
			return d, err
		}
		d.args = append([]string{"-snapshot", d.snapPath, "-snapshot-mode", "mmap",
			"-shards", strconv.Itoa(liveShards), "-refreeze-at", strconv.Itoa(refreezeAt)}, common...)
		d.probe = LookupSequence(cfg.seed, cfg.seconds)[0]
	}
	r := newRefs(newGenIndex(base))
	if d.probe.Scan >= 0 {
		d.want, _ = r.scanRef(d.probe.Scan)
	} else {
		d.want = r.lookupRef(&d.probe, 0)
	}
	return d, nil
}

// buildSnapshot loads the N-Triples file sharded and writes its
// snapshot image, as `wdsnap build -shards` does.
func buildSnapshot(ntPath, snapPath string) error {
	f, err := os.Open(ntPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := ingest.Load(f, ingest.Options{Shards: liveShards})
	if err != nil {
		return err
	}
	return g.WriteSnapshot(snapPath)
}

// setUp starts the server n times, timing each start from exec to the
// first correct probe response, and returns the last one running.
func setUp(cfg config, d *runData, n int) (*serverProc, []float64, error) {
	var times []float64
	for {
		p, started, err := startServer(filepath.Join(cfg.bin, "wdserve"), d.args, runtime.NumCPU())
		if err != nil {
			return nil, nil, err
		}
		c := newClient(p.base, 1)
		var buf bytes.Buffer
		err = c.fetch(&d.probe, &buf)
		took := time.Since(started)
		c.close()
		if err == nil {
			var a Answer
			if a, _, err = scanBody(&d.probe, buf.Bytes()); err == nil && a != d.want {
				err = fmt.Errorf("%d rows (hash %x), want %d (hash %x)", a.Rows, a.Hash, d.want.Rows, d.want.Hash)
			}
		}
		if err != nil {
			p.stop()
			return nil, nil, fmt.Errorf("set-up probe %q: %w", d.probe.Text, err)
		}
		times = append(times, took.Seconds())
		if len(times) == n {
			return p, times, nil
		}
		p.stop()
	}
}

// serverStats is the part of wdserve's /stats document the benchmark reads.
type serverStats struct {
	Shed         uint64 `json:"shed"`
	PeakInFlight int64  `json:"peak_in_flight"`
	QueryCache   struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Cap    int    `json:"cap"`
	} `json:"query_cache"`
	Ingest struct {
		Refreezes uint64 `json:"refreezes"`
		Overlay   int    `json:"overlay_size"`
	} `json:"ingest"`
	Triples int `json:"triples"`
}

func fetchStats(base string) (serverStats, error) {
	var st serverStats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// partLens is how long each of the equal parts a window is cut into
// lasts. Each end-to-end figure is computed per part and summarised over
// the parts (see endToEnd), so a burst of noise from the machine moves
// a few parts rather than the run. lookup has thousands of requests a
// second, so it takes many short parts; scan has a few dozen, so longer
// ones, each still holding every scan query several times.
var partLens = map[string]time.Duration{"lookup": time.Second / 2, "scan": 2 * time.Second, "live": 4 * time.Second}

// warmUps is how long a workload's traffic runs before its measured
// window opens, capped at the window's length. Its requests are checked
// like any other but not timed: the first seconds after set-up pay for
// the server's first garbage collections and a cold query cache.
var warmUps = map[string]time.Duration{"lookup": 5 * time.Second, "scan": 3 * time.Second, "live": 0}

// e2e is the outcome of one measured window.
type e2e struct {
	reads, writes []outcome
	gen           genStats
	seqs          [][]Request     // the sequences the outcomes index into
	warm          time.Duration   // untimed traffic before the window
	window        time.Duration   // the measured window
	parts         int             // sub-windows the window is cut into
	cpu           []time.Duration // server CPU at each sub-window boundary
	hwmMiB        float64
	stats         serverStats
}

// measure drives the running server through one window.
func measure(cfg config, d *runData, p *serverProc) (*e2e, error) {
	pid := p.cmd.Process.Pid
	m := &e2e{window: time.Duration(cfg.seconds * float64(time.Second))}
	m.parts = max(1, int((m.window+partLens[cfg.workload]/2)/partLens[cfg.workload]))
	m.warm = min(warmUps[cfg.workload], m.window)
	total := (m.warm + m.window).Seconds()
	c := newClient(p.base, runtime.NumCPU())
	defer c.close()
	var seq []Request
	switch cfg.workload {
	case "lookup":
		seq = LookupSequence(cfg.seed, total)
		m.seqs = [][]Request{seq}
	case "scan":
		n := int(total*200) + 100
		for c := 0; c < scanConns; c++ {
			m.seqs = append(m.seqs, ScanSequence(c, n))
		}
	case "live":
		m.seqs = [][]Request{LiveReads(cfg.seed, cfg.seconds)}
	}
	runtime.GC()

	// Sample the server's CPU at every sub-window boundary.
	start := time.Now()
	sampled := make(chan error, 1)
	go func() {
		var err error
		for k := 0; k <= m.parts && err == nil; k++ {
			time.Sleep(time.Until(start.Add(m.warm + m.window*time.Duration(k)/time.Duration(m.parts))))
			var cpu time.Duration
			cpu, err = procCPU(pid)
			m.cpu = append(m.cpu, cpu)
		}
		sampled <- err
	}()
	switch cfg.workload {
	case "lookup":
		m.reads, m.gen = c.openLoop(start, seq, runtime.NumCPU())
	case "scan":
		m.reads, m.gen = c.closedLoop(start, m.seqs, m.warm+m.window)
	case "live":
		m.reads, m.writes, m.gen = c.liveLoop(start, m.seqs[0], d.bodies, m.window)
	}
	if err := <-sampled; err != nil {
		return nil, err
	}
	var err error
	if m.hwmMiB, err = procHWM(pid); err != nil {
		return nil, err
	}
	if m.stats, err = fetchStats(p.base); err != nil {
		return nil, err
	}
	return m, nil
}

// verdict counts failures, checking every complete answer.
type verdict struct {
	attempted, failed, wrong int
	okReads, okWrites        int
	firstErr                 error
}

// verify checks every outcome, marking the bad ones.
func (m *e2e) verify(r *refs) verdict {
	var v verdict
	note := func(o *outcome, err error) {
		o.bad = true
		v.failed++
		if v.firstErr == nil {
			v.firstErr = err
		}
	}
	for i := range m.reads {
		o := &m.reads[i]
		v.attempted++
		if o.err != nil {
			note(o, o.err)
			continue
		}
		if err := r.check(&m.seqs[o.conn][o.req], o.ans, o.rows, o.genLo, o.genHi); err != nil {
			v.wrong++
			note(o, err)
			continue
		}
		v.okReads++
	}
	for i := range m.writes {
		o := &m.writes[i]
		v.attempted++
		if o.err != nil {
			note(o, o.err)
			continue
		}
		v.okWrites++
	}
	return v
}

// latencies returns the good outcomes' latencies, of those sent in
// sub-window k (k < 0: the whole measured window).
func latencies(os []outcome, m *e2e, k int) []time.Duration {
	var out []time.Duration
	for _, o := range os {
		if p := m.part(o.at); !o.bad && p >= 0 && (k < 0 || p == k) {
			out = append(out, o.lat)
		}
	}
	return out
}

// part returns the sub-window an offset falls in, -1 in the warm-up.
func (m *e2e) part(at time.Duration) int {
	if at < m.warm {
		return -1
	}
	return min(int((at-m.warm)*time.Duration(m.parts)/m.window), m.parts-1)
}

// endToEnd computes the end-to-end metrics over the sub-windows and
// records the per-part figures in detail. Latencies are the lower
// quartile over the parts: the machine is shared, a neighbour's burst
// only ever adds latency, and it often lasts longer than half a run, so
// the quieter parts are the ones that show the program. The other
// figures, which noise moves either way, are medians over the parts.
func (m *e2e) endToEnd(setupTimes []float64, detail map[string]any) map[string]metric {
	var qps, p50, p90, cpu []float64
	span := m.window.Seconds() / float64(m.parts)
	for k := 0; k < m.parts; k++ {
		lats := latencies(m.reads, m, k)
		ops := len(lats) + len(latencies(m.writes, m, k))
		if len(lats) == 0 {
			continue
		}
		qps = append(qps, float64(len(lats))/span)
		p50 = append(p50, ms(percentile(lats, 0.5)))
		p90 = append(p90, ms(percentile(lats, 0.9)))
		cpu = append(cpu, ms(m.cpu[k+1]-m.cpu[k])/float64(ops))
	}
	detail["part_qps"] = qps
	detail["part_latency_p50_ms"] = p50
	detail["part_latency_p90_ms"] = p90
	detail["part_server_cpu_ms_per_op"] = cpu
	return map[string]metric{
		"setup_s":              {median(setupTimes), "s"},
		"qps":                  {median(qps), "1/s"},
		"latency_p50_ms":       {quantile(p50, 0.25), "ms"},
		"latency_p90_ms":       {quantile(p90, 0.25), "ms"},
		"server_cpu_ms_per_op": {median(cpu), "ms"},
		"server_peak_rss_mb":   {m.hwmMiB, "MiB"},
	}
}

func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "wdload: %-8s done at %.1fs\n", name, time.Since(t0).Seconds())
	}
	d, err := prepare(cfg)
	if d != nil {
		defer os.RemoveAll(d.dir)
	}
	if err != nil {
		return nil, err
	}
	phase("generate")
	n := setups[cfg.workload]
	if cfg.trace {
		n = 1
	}
	runtime.GC()
	p, setupTimes, err := setUp(cfg, d, n)
	if err != nil {
		return nil, err
	}
	phase("set-up")
	m, err := measure(cfg, d, p)
	p.stop()
	if err != nil {
		return nil, err
	}
	phase("measure")
	r := newRefs(indexFor(cfg))
	v := m.verify(r)
	phase("verify")

	all := latencies(m.reads, m, -1)
	late := percentile(m.gen.late, 0.9)
	genCPU := m.gen.cpuFrac()
	hits, misses := m.stats.QueryCache.Hits, m.stats.QueryCache.Misses
	detail := provenance(cfg, d)
	detail["setup_s_samples"] = setupTimes
	detail["reads"] = len(m.reads)
	detail["writes"] = len(m.writes)
	detail["failed_frac"] = float64(v.failed) / float64(max(v.attempted, 1))
	detail["wrong_answers"] = v.wrong
	if v.firstErr != nil {
		detail["first_failure"] = v.firstErr.Error()
	}
	detail["warm_up_s"] = m.warm.Seconds()
	detail["window_qps"] = float64(len(all)) / m.window.Seconds()
	detail["window_latency_p50_ms"] = ms(percentile(all, 0.5))
	detail["window_latency_p90_ms"] = ms(percentile(all, 0.9))
	detail["window_server_cpu_ms_per_op"] = ms(m.cpu[m.parts]-m.cpu[0]) / float64(max(len(all)+len(latencies(m.writes, m, -1)), 1))
	detail["qcache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	detail["qcache_cap"] = m.stats.QueryCache.Cap
	detail["server_shed"] = m.stats.Shed
	detail["server_peak_in_flight"] = m.stats.PeakInFlight
	detail["gen_late_p90_ms"] = ms(late)
	detail["gen_cpu_frac"] = genCPU
	if cfg.workload == "scan" {
		perQuery := make([][]time.Duration, len(scanQueries))
		for _, o := range m.reads {
			if !o.bad {
				q := m.seqs[o.conn][o.req].Scan
				perQuery[q] = append(perQuery[q], o.lat)
			}
		}
		var p50s []float64
		for _, l := range perQuery {
			p50s = append(p50s, ms(percentile(l, 0.5)))
		}
		detail["scan_query_p50_ms"] = p50s
	}
	if cfg.workload == "live" {
		writes := latencies(m.writes, m, -1)
		detail["write_p50_ms"] = ms(percentile(writes, 0.5))
		detail["write_p90_ms"] = ms(percentile(writes, 0.9))
		detail["refreezes"] = m.stats.Ingest.Refreezes
		detail["overlay_at_end"] = m.stats.Ingest.Overlay
		detail["triples_at_end"] = m.stats.Triples
	}
	if late > maxLateP90 || genCPU > maxGenCPU {
		return nil, fmt.Errorf("%w: generator fell behind its bound (late p90 %.2fms > %v or CPU share %.2f > %.2f); the server was not measured",
			errInvalid, ms(late), maxLateP90, genCPU, maxGenCPU)
	}
	if len(all) == 0 {
		return nil, errors.New("no successful read")
	}

	line := resultLine{Correct: v.wrong == 0, Attempted: v.attempted, Failed: v.failed}
	if cfg.trace {
		line.Metrics, err = traceRun(cfg, d, m, r, detail)
		if err != nil {
			return nil, err
		}
	} else {
		line.Metrics = m.endToEnd(setupTimes, detail)
	}
	return &result{detail: detail, line: line}, nil
}

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs, interpolating
// between the two nearest ranks.
func quantile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	x := p * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// provenance records what was measured, where and how.
func provenance(cfg config, d *runData) map[string]any {
	return map[string]any{
		"workload":              cfg.workload,
		"seed":                  cfg.seed,
		"seconds":               cfg.seconds,
		"trace":                 cfg.trace,
		"nproc":                 runtime.NumCPU(),
		"gomaxprocs_generator":  runtime.GOMAXPROCS(0),
		"gomaxprocs_server":     runtime.NumCPU(),
		"cpu_model":             cpuModel(),
		"go_version":            runtime.Version(),
		"source_digest":         sourceDigest(cfg.root),
		"server_flags":          strings.Join(d.args, " "),
		"workload_params":       workloadParams(cfg.workload),
		"graph_triples_written": d.triples,
	}
}

func workloadParams(w string) map[string]any {
	switch w {
	case "lookup":
		return map[string]any{"loop": "open", "rate_per_s": lookupRate, "conns": runtime.NumCPU(), "templates": len(lookupTemplates)}
	case "scan":
		return map[string]any{"loop": "closed", "conns": scanConns, "queries": len(scanQueries)}
	default:
		return map[string]any{"reader": "open, 1 conn", "reads_per_s": liveRate, "scan_pct": liveScanPct, "scan_limit": liveLimit,
			"writer": "open, 1 conn", "batch_triples": batchSize, "batches_per_s": batchRate,
			"refreeze_at": refreezeAt, "shards": liveShards}
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test: a SHA-256 over the
// repository's Go sources and module files (the benchmark checkout is
// not a git repository, so there is no commit hash to read).
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() {
			if path != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := e.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			rel, _ := filepath.Rel(root, path)
			io.WriteString(h, rel+"\x00")
			_, _ = io.Copy(h, f)
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
