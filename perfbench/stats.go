package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lacret/internal/obs"
)

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one printed metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics of an untraced run. Every workload prints all
// of them: op_* are the workload's planning ops (passes, LAC solves, or
// daemon cache misses); daemon cache hits are timed apart and reported as
// service.hit_p50_ms in the traced run, never pooled with misses.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// outcome is what a workload runner measured.
type outcome struct {
	setups []float64 // seconds, one per set-up
	ops    []float64 // latency (ms) of each measured planning op
	hits   []float64 // latency (ms) of each daemon cache hit
	// first and last bound the measured ops of every kind: ops_per_s is
	// completed / (last - first).
	first, last time.Time
	completed   int
	attempted   int
	failed      int
	peakRSSMB   float64
	// problems are run-level correctness failures (a failed verification,
	// a layer-isolation breach); any makes the run incorrect.
	problems []string
	layer    map[string]float64
	// rec holds the benchmark's own spans in a traced run; nil otherwise.
	rec *obs.Recorder
}

func newOutcome(trace bool) *outcome {
	out := &outcome{layer: map[string]float64{}}
	if trace {
		out.rec = obs.NewRecorder()
	}
	return out
}

// clientSpan opens the root span of one client's ops; every traced op of
// the client is a child of it. Untraced, it is nil and free.
func (out *outcome) clientSpan(client int) span {
	return startSpan(obs.NewContext(context.Background(), out.rec), fmt.Sprintf("client %d", client))
}

// op records one completed op (all kinds) against the rate window.
func (out *outcome) op(start, end time.Time) {
	if out.completed == 0 || start.Before(out.first) {
		out.first = start
	}
	if end.After(out.last) {
		out.last = end
	}
	out.completed++
}

func (out *outcome) fail(format string, args ...any) {
	out.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

func (out *outcome) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	out.problems = append(out.problems, msg)
	fmt.Fprintln(os.Stderr, "PROBLEM:", msg)
}

func (out *outcome) result(o options) *result {
	r := &result{
		Correct:   out.failed == 0 && len(out.problems) == 0 && out.attempted > 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		out.layer["failed_ratio"] = float64(out.failed) / float64(r.Attempted)
		for _, d := range layerMetrics {
			r.Metrics[d.Name] = metric{out.layer[d.Name], d.Unit}
		}
		return r
	}
	vals := map[string]float64{
		"setup_s":     median(out.setups),
		"op_p50_ms":   median(out.ops),
		"op_tail_ms":  percentile(out.ops, o.tailPct),
		"peak_rss_mb": out.peakRSSMB,
	}
	if span := out.last.Sub(out.first).Seconds(); span > 0 {
		vals["ops_per_s"] = float64(out.completed) / span
	}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
	}
	return r
}

// report prints the run's human-readable summary.
func report(w io.Writer, o options, out *outcome, r *result, refStart, refEnd float64) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v gomaxprocs %d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "set-ups %d: %s s\n", len(out.setups), fmtList(out.setups))
	n := len(out.ops)
	fmt.Fprintf(w, "ops %d (tail = p%g, %d samples beyond it)", n, o.tailPct, beyond(n, o.tailPct))
	if len(out.hits) > 0 {
		fmt.Fprintf(w, "; cache hits %d (p50 %.3f ms)", len(out.hits), median(out.hits))
	}
	fmt.Fprintf(w, "; completed %d over %.3f s\n", out.completed, out.last.Sub(out.first).Seconds())
	fmt.Fprintf(w, "failed %d of %d attempted (failed_ratio %.4f)\n", r.Failed, r.Attempted, float64(r.Failed)/float64(r.Attempted))
	fmt.Fprintf(w, "host.ref_ms start %.3f end %.3f; host.steal_pct %.2f\n", refStart, refEnd, out.layer["host.steal_pct"])
	for _, p := range out.problems {
		fmt.Fprintln(w, "problem:", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples of n ranked above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - max(int(math.Ceil(p/100*float64(n))), 1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// refIters sizes the host reference loop to a few tens of milliseconds.
const refIters = 20_000_000

var refSink uint64

// hostRef times a fixed pure-Go CPU loop (median of five) in ms. It does
// not touch the planner: when it moves between runs, the host's speed
// moved, not the program's.
func hostRef() float64 {
	ts := make([]float64, 5)
	for i := range ts {
		t0 := time.Now()
		x, s := uint64(88172645463325252), uint64(0)
		for j := 0; j < refIters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s += x & 0xff
		}
		refSink += s
		ts[i] = ms(time.Since(t0))
	}
	return median(ts)
}

// cpuTicks is the machine-wide CPU time from /proc/stat: all of it, and
// the part the hypervisor gave to other guests (steal).
type cpuTicks struct {
	total, steal float64
}

// readCPUTicks reads the aggregate cpu line of /proc/stat; zero when it
// cannot be read (the steal diagnostic then reads 0).
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t
}

// stealPctSince is the share of machine CPU time stolen since start.
func (t cpuTicks) stealPctSince(start cpuTicks) float64 {
	if d := t.total - start.total; d > 0 {
		return 100 * (t.steal - start.steal) / d
	}
	return 0
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
