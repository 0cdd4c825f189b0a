package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"polystyrene/internal/scenario"
	"polystyrene/internal/serve"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// serve-phases: the real polyserve binary as a child process, 80x40,
// K=4, default -interval, with a crash and a reinjection in its phase
// script, queried over loopback HTTP (every 4th query a /neighbors
// query). Reads run beside rounds that publish epochs: its cost is epoch
// capture, JSON/HTTP and GC, with the protocol layers lightly loaded.
// Traffic is an open loop at one fixed rate, each query timed from when
// it was due, then a closed loop over two connections for capacity.
const (
	serveW, serveH = 80, 40
	serveK         = 4
	serveRate      = 250 // open-loop offered load, queries per second
	serveConns     = 2
	serveStarts    = 5 // child starts; their median is setup_s
	neighborEvery  = 4
	childWait      = 10 * time.Second
	// closedSlice cuts the closed loop into slices; peak_qps is the median
	// slice, so a burst of interference from outside the benchmark moves
	// one slice rather than the reading.
	closedSlice = 500 * time.Millisecond
)

// servePhases returns the child's crash and reinjection rounds and the
// open- and closed-loop windows for a measurement budget. At the default
// -interval the child runs about five rounds a second, so the crash
// lands about a third into the open loop and the reinjection before the
// closed loop starts.
func servePhases(secs int) (failAt, reinjectAt int, open, closed time.Duration) {
	budget := time.Duration(secs) * time.Second
	return secs, 5 * secs / 2, budget * 7 / 10, budget * 3 / 10
}

// child is one running polyserve.
type child struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	stderr  *lockedBuffer
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingLine = regexp.MustCompile(`on (http://[0-9.:]+)`)

// startChild launches polyserve and returns once it answers /healthz.
func startChild(seed uint64, secs int, gctrace bool) (*child, error) {
	failAt, reinjectAt, _, _ := servePhases(secs)
	cmd := exec.Command(filepath.Join(buildDir, "polyserve"),
		"-addr", "127.0.0.1:0", "-seed", strconv.FormatUint(seed, 10),
		"-w", strconv.Itoa(serveW), "-h", strconv.Itoa(serveH), "-k", strconv.Itoa(serveK),
		"-fail-at", strconv.Itoa(failAt), "-reinject-at", strconv.Itoa(reinjectAt))
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	c := &child{cmd: cmd, stderr: &lockedBuffer{}}
	cmd.Stderr = c.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The banner names the listen address; the rest of stdout is drained
	// so the child never blocks on a full pipe.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case base, ok := <-addr:
		if !ok {
			c.stop()
			return nil, fmt.Errorf("polyserve exited before serving: %s", c.stderr.String())
		}
		c.base = base
	case <-time.After(childWait):
		c.stop()
		return nil, fmt.Errorf("polyserve printed no address within %v", childWait)
	}
	// Ready once the first round's epoch is published: the epoch captured
	// before any round has no overlay links yet.
	deadline := time.Now().Add(childWait)
	for {
		resp, err := http.Get(c.base + "/stats")
		if err == nil {
			var st struct {
				Epoch uint64 `json:"epoch"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && st.Epoch >= 2 {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("polyserve not healthy within %v", childWait)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop signals the child to drain and waits for it to exit, killing it
// if it does not.
func (c *child) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(childWait):
		c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("polyserve did not drain within %v", childWait)
	}
}

// conn is one client connection with its own ordering check.
type conn struct {
	client     *http.Client
	base       string
	lastEpoch  uint64
	lastNode   sim.NodeID
	lastRound  int
	haveLookup bool
	failAt     int
}

func newConn(base string, failAt int) *conn {
	return &conn{
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base:   base, failAt: failAt, lastNode: sim.None,
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// answer is the part of a lookup or neighbors response the checks read.
type answer struct {
	Epoch     *uint64      `json:"epoch"`
	Round     *int         `json:"round"`
	Found     *bool        `json:"found"`
	Node      *sim.NodeID  `json:"node"`
	Distance  *float64     `json:"distance"`
	Hops      *int         `json:"hops"`
	ID        *sim.NodeID  `json:"id"`
	Neighbors []sim.NodeID `json:"neighbors"`
	Live      *int         `json:"live"`
}

// checkAnswer validates one response: status 200 and a well-formed body
// of the queried kind ("lookup", "neighbors" or "stats"), with an epoch
// no older than the last one this connection saw.
func (c *conn) checkAnswer(kind string, status int, body []byte, wantID sim.NodeID) (answer, error) {
	var a answer
	if status != http.StatusOK {
		return a, fmt.Errorf("%s: status %d: %.200s", kind, status, body)
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("%s: malformed body: %w", kind, err)
	}
	if a.Epoch == nil || a.Round == nil || *a.Epoch == 0 || *a.Round < 0 {
		return a, fmt.Errorf("%s: missing or bad epoch/round stamp: %.200s", kind, body)
	}
	switch kind {
	case "lookup":
		if a.Found == nil || !*a.Found || a.Node == nil || *a.Node < 0 || a.Distance == nil ||
			*a.Distance < 0 || math.IsNaN(*a.Distance) || a.Hops == nil || *a.Hops < 0 {
			return a, fmt.Errorf("lookup: incomplete answer: %.200s", body)
		}
	case "neighbors":
		if a.ID == nil || *a.ID != wantID || len(a.Neighbors) == 0 || len(a.Neighbors) > serveK {
			return a, fmt.Errorf("neighbors: bad answer for id %d: %.200s", wantID, body)
		}
		seen := map[sim.NodeID]bool{}
		for _, n := range a.Neighbors {
			if n < 0 || n == wantID || seen[n] {
				return a, fmt.Errorf("neighbors: bad neighbour list for id %d: %.200s", wantID, body)
			}
			seen[n] = true
		}
	case "stats":
		if a.Live == nil || *a.Live <= 0 {
			return a, fmt.Errorf("stats: no live nodes: %.200s", body)
		}
	}
	if *a.Epoch < c.lastEpoch {
		return a, fmt.Errorf("%s: epoch went backwards on a connection: %d after %d", kind, *a.Epoch, c.lastEpoch)
	}
	c.lastEpoch = *a.Epoch
	return a, nil
}

// query sends query i of the mix: every neighborEvery-th query asks for
// the neighbours of the node this connection's last lookup returned,
// unless that lookup came from the last epoch before the crash (the
// node may be dead by now), when it is a lookup instead.
func (c *conn) query(i int, q space.Point) (answer, error) {
	kind, url, want := "lookup", fmt.Sprintf("%s/lookup?q=%g,%g", c.base, q[0], q[1]), sim.None
	if i%neighborEvery == neighborEvery-1 && c.haveLookup && c.lastRound != c.failAt-1 {
		kind, want = "neighbors", c.lastNode
		url = fmt.Sprintf("%s/neighbors?id=%d&k=%d", c.base, want, serveK)
	}
	a, err := c.get(kind, url, want)
	if err == nil && kind == "lookup" {
		c.lastNode, c.lastRound, c.haveLookup = *a.Node, *a.Round, true
	}
	return a, err
}

func (c *conn) get(kind, url string, want sim.NodeID) (answer, error) {
	resp, err := c.client.Get(url)
	if err != nil {
		return answer{}, fmt.Errorf("%s: %w", kind, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, fmt.Errorf("%s: read body: %w", kind, err)
	}
	return c.checkAnswer(kind, resp.StatusCode, body, want)
}

// queryPoints draws n lookup points on a w x h torus from the seed.
func queryPoints(seed uint64, w, h, n int) []space.Point {
	rng := xrand.New(seed ^ 0x5e7e)
	pts := make([]space.Point, n)
	for i := range pts {
		pts[i] = space.Point{rng.Float64() * float64(w), rng.Float64() * float64(h)}
	}
	return pts
}

// trafficOut is what one serve body measured.
type trafficOut struct {
	open         latencies
	genLate      []float64 // ms
	closedOK     int
	closedWall   time.Duration
	sliceQPS     []float64 // closed-loop throughput per closedSlice
	roundsPerSec float64
	rssMB        float64
	trafficStart time.Duration // since child start
	trafficEnd   time.Duration
	stderr       string
}

// serveBody starts polyserve (serveStarts times, for the set-up median), runs
// the open and the closed loop against the last one, and stops it.
func serveBody(cfg runConfig, tr *tracer, res *result, gctrace bool) (trafficOut, []float64, error) {
	var out trafficOut
	var setups []float64
	var ch *child
	for i := 0; i < serveStarts; i++ {
		t0 := time.Now()
		c, err := startChild(cfg.seed, cfg.seconds, gctrace)
		if res.op(err) != nil {
			return out, nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
		if i < serveStarts-1 {
			c.stop()
			continue
		}
		ch = c
	}
	defer ch.stop()

	failAt, _, openWin, closedWin := servePhases(cfg.seconds)
	conns := make([]*conn, serveConns)
	for i := range conns {
		conns[i] = newConn(ch.base, failAt)
	}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	points := queryPoints(cfg.seed, serveW, serveH, int(serveRate*openWin.Seconds())+1)

	stats0, err := conns[0].get("stats", ch.base+"/stats", sim.None)
	if res.op(err) != nil {
		return out, setups, err
	}
	t0 := time.Now()
	out.trafficStart = t0.Sub(ch.started)

	// Open loop: the pacer releases query i at its due time; two
	// senders, one per connection, take released queries in order.
	type job struct {
		i   int
		due time.Time
	}
	// Sized to every query the schedule can release, so the pacer never
	// blocks behind slow senders: a stall shows as latency, not as a
	// later due time.
	jobs := make(chan job, len(points))
	out.open.ok = make([]float64, 0, len(points))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	openRoot := tr.begin("serve.open_loop", -1)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for j := range jobs {
				sp := tr.begin("http.query", openRoot)
				_, err := c.query(j.i, points[j.i])
				tr.end(sp)
				lat := ms(time.Since(j.due))
				mu.Lock()
				if err != nil {
					out.open.miss()
					if firstErr == nil {
						firstErr = err
					}
				} else {
					out.open.add(lat)
				}
				mu.Unlock()
			}
		}(c)
	}
	p := newPacer(time.Now().Add(5*time.Millisecond), serveRate)
	p.run(p.start.Add(openWin), func(i int, due time.Time, late time.Duration) {
		out.genLate = append(out.genLate, ms(late))
		jobs <- job{i, due}
	})
	close(jobs)
	wg.Wait()
	tr.end(openRoot)
	res.attempted += out.open.count()
	res.failed += out.open.missing
	if firstErr != nil {
		return out, setups, firstErr
	}

	// Closed loop: each connection sends its next query when the last
	// one answers.
	closedRoot := tr.begin("serve.closed_loop", -1)
	counts := make([]int, len(conns))
	errs := make([]error, len(conns))
	slices := make([][]int, len(conns)) // answers per closedSlice, per connection
	cStart := time.Now()
	end := cStart.Add(closedWin)
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *conn) {
			defer wg.Done()
			slices[k] = make([]int, int(closedWin/closedSlice))
			for i := k; time.Now().Before(end); i += len(conns) {
				sp := tr.begin("http.query", closedRoot)
				_, err := c.query(i, points[i%len(points)])
				tr.end(sp)
				if err != nil {
					errs[k] = err
					return
				}
				counts[k]++
				if s := int(time.Since(cStart) / closedSlice); s < len(slices[k]) {
					slices[k][s]++
				}
			}
		}(k, c)
	}
	wg.Wait()
	out.closedWall = time.Since(cStart)
	tr.end(closedRoot)
	for s := range slices[0] {
		n := 0
		for k := range slices {
			n += slices[k][s]
		}
		out.sliceQPS = append(out.sliceQPS, float64(n)/closedSlice.Seconds())
	}
	for k := range conns {
		out.closedOK += counts[k]
		for i := 0; i < counts[k]; i++ {
			res.op(nil)
		}
		if res.op(errs[k]) != nil {
			return out, setups, errs[k]
		}
	}

	stats1, err := conns[0].get("stats", ch.base+"/stats", sim.None)
	if res.op(err) != nil {
		return out, setups, err
	}
	tEnd := time.Now()
	out.trafficEnd = tEnd.Sub(ch.started)
	out.roundsPerSec = float64(*stats1.Round-*stats0.Round) / tEnd.Sub(t0).Seconds()
	if *stats1.Round <= failAt {
		return out, setups, fmt.Errorf("child reached round %d only; the crash at round %d never happened under load", *stats1.Round, failAt)
	}
	rss, err := peakRSSMB(strconv.Itoa(ch.cmd.Process.Pid))
	if res.op(err) != nil {
		return out, setups, err
	}
	out.rssMB = rss
	if err := res.op(ch.stop()); err != nil {
		return out, setups, err
	}
	out.stderr = ch.stderr.String()
	return out, setups, nil
}

// serveStack is the in-process torus of the serve-phases size and
// engine mode (polyserve runs the sequential engine) that the traced run
// analyses layer by layer.
var serveStack = stack{label: "serve-phases/in-process", w: serveW, h: serveH, k: serveK, workers: 0,
	phaseRounds: 10, setups: setupRepeats, repeats: scaleRepeats}

func runServe(cfg runConfig, res *result) error {
	// The client's own collections would stall senders and the pacer and
	// be charged to the server; its heap stays small, so collect rarely.
	debug.SetGCPercent(2000)
	if !cfg.trace {
		out, setups, err := serveBody(cfg, nil, res, false)
		if err != nil {
			return err
		}
		p50, err := out.open.percentile(0.50)
		if err != nil {
			return err
		}
		p99, err := out.open.percentile(0.99)
		if err != nil {
			return err
		}
		fmt.Printf("# open loop: %d queries at %d/s, %d missing, p50 %.3f ms, p99 %.3f ms\n",
			out.open.count(), serveRate, out.open.missing, p50, p99)
		// A query is what a client of the service waits on.
		res.set("setup_s", "s", median(setups))
		res.set("op_p50_ms", "ms", p50)
		res.set("rounds_per_s", "1/s", out.roundsPerSec)
		res.set("peak_rss_mb", "MB", out.rssMB)
		note("query_p50_ms", "ms", p50)
		// The open-loop tail moves, run to run, with where the child's
		// rounds and collections land against the queries, by more than
		// any regression bound allows on a two-CPU box.
		note("query_p99_ms", "ms", p99)
		note("peak_qps", "1/s", median(out.sliceQPS))
		note("serve_rounds_per_s", "1/s", out.roundsPerSec)
		late := latencies{ok: out.genLate}
		if lateP99, err := late.percentile(0.99); err == nil {
			note("serve.gen_late_p99_ms", "ms", lateP99)
		}
		return nil
	}

	ref, _, err := serveBody(cfg, nil, newResult(), false)
	if err != nil {
		return err
	}
	tr := newTracer(cfg.seed)
	out, _, err := serveBody(cfg, tr, res, true)
	if err != nil {
		return err
	}
	// The in-process stack first, collected as a program would be: its
	// collections are the benchmark's own, and the child's, parsed
	// below, replace them.
	debug.SetGCPercent(100)
	if err := stackTraced(cfg, serveStack, tr, res, nil); err != nil {
		return err
	}
	// The closed loop's queries, at the traced pace minus the untraced.
	perQuery := out.closedWall.Seconds()/float64(out.closedOK) - ref.closedWall.Seconds()/float64(ref.closedOK)
	res.set("trace.overhead_ms", "ms", 1000*perQuery*float64(out.closedOK))
	cycles, pauses := gcPauses(out.stderr, out.trafficStart, out.trafficEnd)
	res.set("go.gc_cycles", "count", float64(cycles))
	gp := latencies{ok: pauses}
	if p, err := gp.percentile(0.99); err == nil {
		res.set("go.gc_pause_p99_ms", "ms", p)
	} else {
		// Fewer than 1000 cycles: the slowest one bounds p99.
		res.set("go.gc_pause_p99_ms", "ms", maxOf(pauses))
	}
	if p99, err := out.open.percentile(0.99); err == nil {
		note("query_p99_ms", "ms", p99)
	}
	late := latencies{ok: out.genLate}
	if lateP99, err := late.percentile(0.99); err == nil {
		note("serve.gen_late_p99_ms", "ms", lateP99)
	}
	_, err = tr.write(filepath.Join(buildDir, "traces"), cfg.name, cfg.seed)
	return err
}

// maxOf returns the largest of xs, which are not negative (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

var gcLine = regexp.MustCompile(`^gc \d+ @([0-9.]+)s [0-9]+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock`)

// gcPauses parses GODEBUG=gctrace=1 output and returns the cycles that
// started inside [from, to) of the child's life and their stop-the-world
// pauses (sweep termination plus mark termination) in milliseconds.
func gcPauses(stderr string, from, to time.Duration) (int, []float64) {
	var pauses []float64
	for _, line := range strings.Split(stderr, "\n") {
		m := gcLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		at, _ := strconv.ParseFloat(m[1], 64)
		if t := time.Duration(at * float64(time.Second)); t < from || t >= to {
			continue
		}
		a, _ := strconv.ParseFloat(m[2], 64)
		c, _ := strconv.ParseFloat(m[3], 64)
		pauses = append(pauses, a+c)
	}
	return len(pauses), pauses
}

// serveLayers times the serving layer in process on a stack's restored
// states: epoch capture, epoch queries, and the HTTP handler without a
// socket; and checks greedy lookups against a brute-force nearest live
// node.
func serveLayers(cfg runConfig, tr *tracer, res *result, scfg scenario.Config, snaps [][]byte) error {
	// The brute-force reference scans every live node per point, so it
	// checks a prefix of the points.
	const exactPoints = 256
	points := queryPoints(cfg.seed, scfg.W, scfg.H, 2000)

	var captures, lookups, neighbors, https []float64
	var allocMB []float64
	hits, attempts := 0, 0
	for _, data := range snaps {
		sc, err := restoreScenario(scfg, data)
		if res.op(err) != nil {
			return err
		}
		src := sc.ServeSource()
		var ep *serve.Epoch
		before := totalAlloc()
		const reps = 10
		for i := 0; i < reps; i++ {
			sp := tr.begin("serve.capture", -1)
			ep = serve.Capture(src, 0, uint64(i+1))
			captures = append(captures, ms(tr.end(sp)))
		}
		allocMB = append(allocMB, float64(totalAlloc()-before)/(1<<20)/reps)

		lookups = append(lookups, perCallUS(tr, "serve.lookup", func() {
			for _, q := range points {
				ep.Lookup(q)
			}
		}, len(points)))
		buf := make([]sim.NodeID, 0, scfg.K)
		neighbors = append(neighbors, perCallUS(tr, "serve.neighbors", func() {
			for i := 0; i < ep.NumLive(); i++ {
				buf, _ = ep.AppendNeighbors(buf[:0], ep.NodeAt(i), scfg.K)
			}
		}, ep.NumLive()))

		pub := serve.NewPublisher(0)
		pub.Publish(src)
		front := serve.NewFrontend(pub)
		reqs := make([]*http.Request, 200)
		for i := range reqs {
			reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/lookup?q=%g,%g", points[i][0], points[i][1]), nil)
		}
		https = append(https, perCallUS(tr, "serve.http", func() {
			for _, r := range reqs {
				rec := httptest.NewRecorder()
				front.ServeHTTP(rec, r)
				if rec.Code != http.StatusOK {
					err = fmt.Errorf("in-process lookup answered %d", rec.Code)
				}
			}
		}, len(reqs)))
		pub.Close()
		if res.op(err) != nil {
			sc.Close()
			return err
		}

		for _, q := range points[:exactPoints] {
			_, dist, _, ok := ep.Lookup(q)
			best := math.Inf(1)
			for i := 0; i < ep.NumLive(); i++ {
				pos, _ := ep.Position(ep.NodeAt(i))
				best = math.Min(best, sc.Space.Distance(q, pos))
			}
			attempts++
			if ok && dist <= best+1e-9 {
				hits++
			}
		}
		sc.Close()
	}
	res.set("serve.capture_ms", "ms", median(captures))
	res.set("serve.capture_alloc_mb", "MB", median(allocMB))
	res.set("serve.lookup_us", "us", median(lookups))
	res.set("serve.neighbors_us", "us", median(neighbors))
	res.set("serve.http_us", "us", median(https))
	res.set("serve.lookup_exact_ratio", "ratio", float64(hits)/float64(attempts))
	return nil
}

// perCallUS times f, which makes n calls, five times under one span each
// and returns the median microseconds per call.
func perCallUS(tr *tracer, name string, f func(), n int) float64 {
	var reps []float64
	for r := 0; r < 5; r++ {
		sp := tr.begin(name, -1)
		f()
		reps = append(reps, float64(tr.end(sp).Nanoseconds())/1e3/float64(n))
	}
	return median(reps)
}
