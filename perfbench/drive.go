package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one read as the client saw it.
type outcome struct {
	req   int // index into the sequence it came from
	conn  int // which sequence (closed loop: the connection)
	err   error
	ans   Answer
	rows  []uint64      // per-row hashes (limited scans only)
	lat   time.Duration // from due (open loop) or send (closed loop) to last byte
	at    time.Duration // due (open loop) or send (closed loop) time, from the window start
	bad   bool          // failed, or a wrong answer (set by the check)
	genLo int           // live: batches acknowledged before send
	genHi int           // live: batches posted by the time it returned
}

// client issues reads and writes over at most conns keep-alive
// connections to one server.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// fetch performs one query and reads its whole body into buf. The
// caller stops its clock here and scans the body afterwards: the
// client's parsing then neither counts in the latency nor runs beside
// the server on the machine's shared cores.
func (c *client) fetch(req *Request, buf *bytes.Buffer) error {
	buf.Reset()
	resp, err := c.http.Get(c.base + req.Path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	_, err = buf.ReadFrom(resp.Body)
	return err
}

// ingest posts one write batch and waits for the server's final
// NDJSON summary line.
func (c *client) ingest(body string) error {
	resp, err := c.http.Post(c.base+"/ingest", "application/n-triples", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if !bytes.Contains(lines[len(lines)-1], []byte(`"done":true`)) {
		return errors.New("ingest: no done summary")
	}
	return nil
}

// genStats is the generator's own account of a run.
type genStats struct {
	late    []time.Duration // open loop: dispatch time minus due time
	cpu     time.Duration   // generator CPU over the window
	elapsed time.Duration
}

// cpuFrac is the generator's share of the machine over the window.
func (g genStats) cpuFrac() float64 {
	return g.cpu.Seconds() / (g.elapsed.Seconds() * float64(runtime.NumCPU()))
}

// openLoop sends seq at its due times over conns connections and
// returns every outcome. Latency counts from the due time, so a stall
// charges every request queued behind it. Lateness is the dispatcher's
// own delay past the due time (a late generator, not a slow server).
func (c *client) openLoop(start time.Time, seq []Request, conns int) ([]outcome, genStats) {
	var gs genStats
	out := make([]outcome, len(seq))
	queue := make(chan int, len(seq))
	gs.late = make([]time.Duration, len(seq))
	cpu0 := selfCPU()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				err := c.fetch(&seq[i], &buf)
				o := outcome{req: i, err: err, lat: time.Since(start.Add(seq[i].Due)), at: seq[i].Due}
				if err == nil {
					o.ans, _, o.err = scanBody(&seq[i], buf.Bytes())
				}
				out[i] = o
			}
		}()
	}
	for i := range seq {
		due := start.Add(seq[i].Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		gs.late[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	gs.elapsed = time.Since(start)
	gs.cpu = selfCPU() - cpu0
	return out, gs
}

// closedLoop runs one worker per sequence, each sending its next
// request when the previous one completed, until the window closes.
func (c *client) closedLoop(start time.Time, seqs [][]Request, window time.Duration) ([]outcome, genStats) {
	var gs genStats
	var mu sync.Mutex
	var out []outcome
	cpu0 := selfCPU()
	var wg sync.WaitGroup
	for conn, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var mine []outcome
			for i := 0; i < len(seq) && time.Since(start) < window; i++ {
				t := time.Now()
				err := c.fetch(&seq[i], &buf)
				o := outcome{req: i, conn: conn, err: err, lat: time.Since(t), at: t.Sub(start)}
				if err == nil {
					o.ans, o.rows, o.err = scanBody(&seq[i], buf.Bytes())
				}
				mine = append(mine, o)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	gs.elapsed = time.Since(start)
	gs.cpu = selfCPU() - cpu0
	return out, gs
}

// liveLoop runs the live workload over two connections: an open-loop
// reader sending reads at their due times, and an open-loop writer
// posting batches at batchRate. Each waits for its previous reply
// before the next send, so a slow reply delays the requests behind it
// and that delay counts in their latency, which runs from the due
// time. Each read records the window of write generations it may have
// observed.
func (c *client) liveLoop(start time.Time, reads []Request, batches []string, window time.Duration) (rd []outcome, wr []outcome, gs genStats) {
	var acked, posted atomic.Int64
	cpu0 := selfCPU()
	var writerLate []time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b, body := range batches {
			due := start.Add(time.Duration(float64(b) / batchRate * float64(time.Second)))
			if due.Sub(start) >= window {
				break
			}
			if late, ok := waitUntil(due); ok {
				writerLate = append(writerLate, late)
			}
			posted.Add(1)
			err := c.ingest(body)
			wr = append(wr, outcome{req: b, err: err, lat: time.Since(due), at: due.Sub(start)})
			if err == nil {
				acked.Add(1)
			}
		}
	}()
	var buf bytes.Buffer
	for i := range reads {
		due := start.Add(reads[i].Due)
		if late, ok := waitUntil(due); ok {
			gs.late = append(gs.late, late)
		}
		lo := int(acked.Load())
		err := c.fetch(&reads[i], &buf)
		o := outcome{req: i, err: err, lat: time.Since(due), at: reads[i].Due, genLo: lo, genHi: int(posted.Load())}
		if err == nil {
			o.ans, o.rows, o.err = scanBody(&reads[i], buf.Bytes())
		}
		rd = append(rd, o)
	}
	<-done
	gs.late = append(gs.late, writerLate...)
	gs.elapsed = time.Since(start)
	gs.cpu = selfCPU() - cpu0
	return rd, wr, gs
}

// waitUntil sleeps until due and returns how late it woke. A send
// already overdue waited for the previous reply on its connection: that
// delay is the server's, it lands in the request's latency, and ok is
// false so it does not count as generator lateness.
func waitUntil(due time.Time) (late time.Duration, ok bool) {
	d := time.Until(due)
	if d <= 0 {
		return 0, false
	}
	time.Sleep(d)
	return time.Since(due), true
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) by nearest rank.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[int(p*float64(len(s)-1)+0.5)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
