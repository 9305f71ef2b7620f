package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lacret/internal/check"
	"lacret/internal/job"
	"lacret/internal/obs"
)

// The traffic mix of daemon-iterate. No measured designer traffic backs
// these values: they are assumptions, chosen so that one run holds tens of
// samples of both cache hits and misses. ops_per_s depends on them (a hit
// takes milliseconds, a miss a full pass), so it is the rate of this mix,
// not of any real traffic.
const (
	daemonClients = 2
	daemonWorkers = 2
	// poolPerClient is each client's number of distinct requests. The two
	// pools together (96) exceed the daemon's default 64-entry result
	// cache by more than the entries repeats keep fresh, so a client going
	// round its pool misses the cache, while a repeat of one of its last
	// few requests hits it.
	poolPerClient = 48
	// Every repeatEvery-th request of a client repeats one of its last
	// recentRequests distinct requests: a third of the requests are hits,
	// about 150 hits and 300 misses in a 30 s run.
	repeatEvery    = 3
	recentRequests = 4
	// daemonSetupRuns is how many daemons a run starts; setup_s is the
	// median of their set-ups.
	daemonSetupRuns = 5
)

// daemonCircuits are the small catalog circuits a designer iterates on.
var daemonCircuits = []string{"s386", "s400", "s526"}

// daemonAlphas are the LAC alphas a request draws from: the points of the
// repository's alpha ablation benchmark (BenchmarkAlphaSweep), around the
// paper's 0.2.
var daemonAlphas = []float64{0.1, 0.2, 0.4}

// jobResponse is the daemon's job envelope: the status plus, once the job
// is terminal, its report.
type jobResponse struct {
	job.Status
	Report json.RawMessage `json:"report,omitempty"`
}

// daemon is one running lacretd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
}

// lineWatcher is the child's stderr: it scans the log for the serving URL
// and discards everything else.
type lineWatcher struct {
	buf   []byte
	found chan string
	sent  bool
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, rest, ok := strings.Cut(line, "url=http://"); ok && strings.Contains(line, "lacretd serving") {
			addr, _, _ := strings.Cut(rest, "/")
			w.found <- "http://" + addr
			w.sent, w.buf = true, nil
			return len(p), nil
		}
	}
}

// startDaemon starts lacretd and returns once /readyz answers 200.
func startDaemon(o options, dataDir string) (*daemon, error) {
	if o.lacretd == "" {
		return nil, fmt.Errorf("--lacretd not set")
	}
	cmd := exec.Command(o.lacretd, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(daemonWorkers), "-data-dir", dataDir)
	if o.gomaxprocs > 0 {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.gomaxprocs))
	}
	// The daemon must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	w := &lineWatcher{found: make(chan string, 1)}
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * daemonClients}}}
	select {
	case d.base = <-w.found:
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("lacretd did not report its address")
	}
	for start := time.Now(); ; {
		resp, err := d.hc.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("lacretd not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("lacretd did not drain: %v", <-done)
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// submit posts a request and returns the HTTP status and envelope.
func (d *daemon) submit(req job.PlanRequest) (int, *jobResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.hc.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var jr jobResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			return resp.StatusCode, nil, fmt.Errorf("decoding submit response: %w", err)
		}
		return resp.StatusCode, &jr, nil
	}
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
}

// wait reads the job's event stream until its terminal state event.
func (d *daemon) wait(id string) (job.State, error) {
	resp, err := d.hc.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev job.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("decoding event: %w", err)
		}
		if ev.Type == "state" && ev.State.Terminal() {
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("event stream of %s ended before a terminal state", id)
}

// get fetches a path's body, failing on any status but 200.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return data, nil
}

// request runs one request to its terminal event and returns the
// envelope's status and the terminal state.
func (d *daemon) request(req job.PlanRequest) (*jobResponse, job.State, error) {
	code, jr, err := d.submit(req)
	if err != nil {
		return nil, "", err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, "", fmt.Errorf("submit: HTTP %d", code)
	}
	state, err := d.wait(jr.ID)
	return jr, state, err
}

// clientPool draws a client's distinct requests from the workload seed:
// a planning seed, a Tclk slack in [0.1, 0.4] (around the default 0.2)
// and an alpha for each small catalog circuit in turn, in a seed-drawn
// order. Every pool holds each circuit equally often, so the seed does not
// change the mix of pass sizes.
func clientPool(seed int64, client int) []job.PlanRequest {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
	pool := make([]job.PlanRequest, poolPerClient)
	for i := range pool {
		alpha := daemonAlphas[rng.Intn(len(daemonAlphas))]
		pool[i] = job.PlanRequest{
			Source: job.Source{Circuit: daemonCircuits[i%len(daemonCircuits)]},
			Config: job.ReqConfig{
				Seed:      1 + rng.Int63n(1<<30),
				TclkSlack: math.Round((0.1+0.05*float64(rng.Intn(7)))*100) / 100,
				Alpha:     &alpha,
			},
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// missRec is one cache miss kept for the post-window reference check.
type missRec struct {
	req         job.PlanRequest
	summary     job.Summary
	constraints float64
}

// daemonRun is the shared state of the measured window.
type daemonRun struct {
	o   options
	d   *daemon
	out *outcome

	mu        sync.Mutex
	lastMiss  map[string][]byte // digest -> report bytes of its latest miss
	misses    map[string][]missRec
	missOps   []float64 // untraced miss latencies, for the tracing overhead
	tracedOps []float64
	layerOps  []opTrace
	series    map[string][]float64
	rejected  int
	submitted int
	hits      int
}

func (r *daemonRun) add(name string, v float64) {
	r.series[name] = append(r.series[name], v)
}

// client is one designer: a closed loop over its pool, every
// repeatEvery-th request repeating one of its recent requests.
func (r *daemonRun) client(id int, deadline time.Time) {
	pool := clientPool(r.o.seed, id)
	rng := rand.New(rand.NewSource(r.o.seed*1000 + 500 + int64(id)))
	cs := r.out.clientSpan(id)
	defer cs.end()
	var recent []job.PlanRequest
	next := 0
	for i := 0; time.Now().Before(deadline); i++ {
		var req job.PlanRequest
		if i%repeatEvery == repeatEvery-1 && len(recent) > 0 {
			req = recent[rng.Intn(len(recent))]
		} else {
			req = pool[next%len(pool)]
			next++
			recent = append(recent, req)
			if len(recent) > recentRequests {
				recent = recent[1:]
			}
		}
		r.one(cs.ctx, id, i, req)
	}
}

// one runs and checks one request. Its latency runs from the submit to the
// terminal event; the status and report fetches after it are untimed. In a
// traced run every other request is traced under the client's span cctx.
func (r *daemonRun) one(cctx context.Context, client, i int, req job.PlanRequest) {
	out := r.out
	op := client*1_000_000 + i
	tctx := context.Background()
	if r.o.trace && i%2 == 0 {
		tctx = cctx
	}
	r.mu.Lock()
	out.attempted++
	r.submitted++
	r.mu.Unlock()

	t0 := time.Now()
	reqSpan := startSpan(tctx, "request")
	subSpan := startSpan(reqSpan.ctx, "submit")
	code, jr, err := r.d.submit(req)
	subSpan.end()
	t1 := time.Now()
	if err != nil {
		reqSpan.end()
		r.mu.Lock()
		defer r.mu.Unlock()
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			r.rejected++
		}
		out.fail("client %d request %d: %v", client, i, err)
		return
	}
	if jr.CacheHit {
		reqSpan.sp.SetAttr("cache_hit", 1)
	}
	evSpan := startSpan(reqSpan.ctx, "events")
	state, err := r.d.wait(jr.ID)
	evSpan.end()
	reqSpan.end()
	t2 := time.Now()
	lat := ms(t2.Sub(t0))
	if err == nil && state != job.StateDone {
		err = fmt.Errorf("job %s ended %s", jr.ID, state)
	}
	var st jobResponse
	var rep []byte
	var repMS float64
	if err == nil {
		var body []byte
		if body, err = r.d.get("/v1/jobs/" + jr.ID); err == nil {
			err = json.Unmarshal(body, &st)
		}
	}
	if err == nil {
		t := time.Now()
		rep, err = r.d.get("/v1/jobs/" + jr.ID + "/report")
		repMS = ms(time.Since(t))
	}
	var dec *obs.Report
	if err == nil {
		dec, err = obs.DecodeReport(rep)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		out.fail("client %d request %d: %v", client, i, err)
		return
	}
	out.op(t0, t2)
	hit := jr.CacheHit
	if hit {
		if op == r.o.corruptOp {
			rep = append(rep, ' ')
		}
		r.hits++
		out.hits = append(out.hits, lat)
		if prev, ok := r.lastMiss[st.Digest]; !ok || !bytes.Equal(prev, rep) {
			out.fail("client %d request %d: cache hit %s differs from the report of its miss", client, i, jr.ID)
		}
	} else {
		out.ops = append(out.ops, lat)
		r.lastMiss[st.Digest] = rep
		if st.Summary == nil {
			out.fail("client %d request %d: job %s has no summary", client, i, jr.ID)
			return
		}
		if op == r.o.corruptOp {
			st.Summary.LACNWR++
		}
		r.misses[st.Digest] = append(r.misses[st.Digest], missRec{req, *st.Summary, reportCounter(dec, "constraints", "constraints")})
	}
	if !r.o.trace {
		return
	}
	if reqSpan.sp == nil {
		if !hit {
			r.missOps = append(r.missOps, lat)
		}
		return
	}
	r.add("service.report_ms", repMS)
	r.add("service.report_kb", float64(len(rep))/1024)
	if hit {
		return
	}
	r.tracedOps = append(r.tracedOps, lat)
	r.add("job.submit_ms", ms(t1.Sub(t0)))
	if st.Started != nil && st.Finished != nil {
		r.add("job.queue_wait_ms", ms(st.Started.Sub(st.Created)))
		r.add("job.run_ms", ms(st.Finished.Sub(*st.Started)))
		r.add("service.overhead_ms", lat-ms(st.Finished.Sub(st.Created)))
	}
	rec := opTrace{GCCycles: -1}
	for _, p := range dec.Passes {
		for _, s := range p.Stages {
			c := make(map[string]float64, len(s.Counters))
			for _, a := range s.Counters {
				c[a.Key] = a.Value
			}
			rec.Stages = append(rec.Stages, stageRec{s.Name, float64(s.WallNS) / 1e6, -1, c})
		}
	}
	r.layerOps = append(r.layerOps, rec)
}

// reportCounter returns a counter of a stage of the report's first pass.
func reportCounter(rep *obs.Report, stage, key string) float64 {
	if len(rep.Passes) == 0 {
		return -1
	}
	for _, s := range rep.Passes[0].Stages {
		if s.Name != stage {
			continue
		}
		for _, a := range s.Counters {
			if a.Key == key {
				return a.Value
			}
		}
	}
	return -1
}

func runDaemonIterate(o options) (*outcome, error) {
	out := newOutcome(o.trace)
	base := filepath.Join(o.work, fmt.Sprintf("daemon-%d", os.Getpid()))
	defer os.RemoveAll(base)

	// Set-up: process start to the first /readyz 200, plus one warm-up
	// request per circuit, several times; the last daemon serves the
	// window. Starting a daemon is cheap, so it sets up more often than
	// the in-process workloads.
	var d *daemon
	for i := 0; i < daemonSetupRuns; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping lacretd: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(o, filepath.Join(base, strconv.Itoa(i))); err != nil {
			return nil, err
		}
		for _, c := range daemonCircuits {
			warm := job.PlanRequest{Source: job.Source{Circuit: c}}
			if _, state, err := d.request(warm); err != nil || state != job.StateDone {
				d.kill()
				return nil, fmt.Errorf("warm-up request %s: state %q: %v", c, state, err)
			}
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}

	r := &daemonRun{
		o: o, d: d, out: out,
		lastMiss: map[string][]byte{},
		misses:   map[string][]missRec{},
		series:   map[string][]float64{},
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.client(c, deadline)
		}(c)
	}
	wg.Wait()
	rss, rssErr := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping lacretd: %w", err)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	out.peakRSSMB = rss

	verifyMS := r.checkMisses()
	out.layer["check.verify_ms"] = median(verifyMS)
	if o.trace {
		addStageLayers(out.layer, r.layerOps)
		for name, xs := range r.series {
			out.layer[name] = median(xs)
		}
		out.layer["service.hit_p50_ms"] = median(out.hits)
		out.layer["job.hits"] = float64(r.hits)
		out.layer["job.submitted"] = float64(r.submitted)
		out.layer["job.cache_hit_ratio"] = float64(r.hits) / float64(max(r.submitted, 1))
		out.layer["job.rejected"] = float64(r.rejected)
		out.layer["trace.overhead_ms"] = median(r.tracedOps) - median(r.missOps)
	}
	return out, nil
}

// checkMisses plans every distinct missed request once in this process,
// verifies the result with check.Verify, and compares each of the
// daemon's answers for it with the verified numbers. It returns the
// verification time of each input.
func (r *daemonRun) checkMisses() []float64 {
	digests := make(chan string)
	var mu sync.Mutex
	var verifyMS []float64
	var wg sync.WaitGroup
	for w := 0; w < daemonWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dg := range digests {
				recs := r.misses[dg]
				ms, err := verifyMiss(recs)
				mu.Lock()
				if err != nil {
					r.out.failed += len(recs)
					fmt.Fprintf(os.Stderr, "FAIL: %s: %v\n", dg[:12], err)
				} else {
					verifyMS = append(verifyMS, ms)
				}
				mu.Unlock()
			}
		}()
	}
	for dg := range r.misses {
		digests <- dg
	}
	close(digests)
	wg.Wait()
	return verifyMS
}

// verifyMiss plans a missed request locally, verifies it, and compares the
// daemon's answers with it.
func verifyMiss(recs []missRec) (float64, error) {
	req := recs[0].req
	req.Normalize()
	run, err := job.DefaultRun(context.Background(), &req, nil)
	if err != nil {
		return 0, err
	}
	if len(run.Iters) == 0 || run.Iters[0].Err != nil {
		return 0, fmt.Errorf("reference plan failed: %v", run.Iters)
	}
	res := run.Iters[0].Result
	t := time.Now()
	if _, err := check.Verify(res); err != nil {
		return 0, err
	}
	verify := ms(time.Since(t))
	h := headlineOf(res)
	for _, m := range recs {
		s := m.summary
		got := headline{s.TinitNS, s.TminNS, s.TclkNS, s.MinAreaNFOA, s.MinAreaNF, s.LACNFOA, s.LACNF, s.LACNWR, int(m.constraints)}
		if got != h {
			return 0, fmt.Errorf("daemon answered %+v, verified %+v", got, h)
		}
	}
	return verify, nil
}
