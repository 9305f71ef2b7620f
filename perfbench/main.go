// Command perfbench is the planner's end-to-end benchmark. It drives the
// planner from outside, through its public entry points, on one of three
// workloads:
//
//	plan-pass       one full planning pass per op (stage by stage through
//	                plan.PlanState.RunContext), closed loop, 1 client
//	lac-rounds      one core.Problem.SolveContext per op on a problem set up
//	                once, closed loop, 1 client
//	daemon-iterate  a lacretd child process driven over HTTP by 2 closed-loop
//	                clients iterating on small circuits, a fixed share of
//	                requests repeating an earlier one (cache hits)
//
// Usage (normally through run.sh, which builds this and lacretd first):
//
//	perfbench --lacretd <binary> --work <dir> --gomaxprocs 2 \
//	    --tail plan-pass=75,lac-rounds=50,daemon-iterate=95 \
//	    --workload plan-pass --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones (see README.md); human-readable detail
// goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// options is one benchmark run's configuration.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	tailPct    float64 // percentile reported as op_tail_ms
	lacretd    string  // daemon binary (daemon-iterate)
	work       string  // directory for daemon data and trace files
	gomaxprocs int
	// corruptOp, when >= 0, falsifies the result of that timed op before
	// it is checked: the benchmark's own test uses it to prove a wrong
	// result is counted as failed.
	corruptOp int
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options) (*outcome, error){
	"plan-pass":      runPlanPass,
	"lac-rounds":     runLACRounds,
	"daemon-iterate": runDaemonIterate,
}

func main() {
	var (
		o    options
		tail string
	)
	flag.StringVar(&o.workload, "workload", "", "workload: plan-pass, lac-rounds or daemon-iterate")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&tail, "tail", "", "percentile reported as op_tail_ms, per workload: name=pct,...")
	flag.StringVar(&o.lacretd, "lacretd", "", "lacretd binary (daemon-iterate)")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for daemon data and trace files")
	flag.IntVar(&o.gomaxprocs, "gomaxprocs", 0, "GOMAXPROCS of the planning process, the bench or the lacretd child (0 = Go's default)")
	flag.Parse()
	o.corruptOp = -1
	o.trace = *traceFlag == 1

	res, err := run(o, tail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its result line.
func run(o options, tailSpec string) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	pct, err := tailFor(tailSpec, o.workload)
	if err != nil {
		return nil, err
	}
	o.tailPct = pct
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if o.gomaxprocs > 0 {
		runtime.GOMAXPROCS(o.gomaxprocs)
	}
	refStart, cpuStart := hostRef(), readCPUTicks()
	out, err := fn(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	refEnd, cpuEnd := hostRef(), readCPUTicks()
	out.layer["host.ref_ms"] = median([]float64{refStart, refEnd})
	out.layer["host.ref_drift_pct"] = 100 * (refEnd - refStart) / refStart
	out.layer["host.steal_pct"] = cpuEnd.stealPctSince(cpuStart)
	if o.trace {
		if path, err := writeTrace(o.work, o.workload, o.seed, out.rec); err != nil {
			out.problems = append(out.problems, fmt.Sprintf("writing spans: %v", err))
		} else {
			fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
		}
	}
	res := out.result(o)
	report(os.Stderr, o, out, res, refStart, refEnd)
	return res, nil
}

// tailFor parses "name=pct,..." and returns the workload's percentile.
func tailFor(spec, workload string) (float64, error) {
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || name != workload {
			continue
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p <= 0 || p >= 100 {
			return 0, fmt.Errorf("bad tail percentile %q for %s", val, workload)
		}
		return p, nil
	}
	return 0, fmt.Errorf("--tail names no percentile for %s", workload)
}
