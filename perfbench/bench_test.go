package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"lacret/internal/bench89"
	"lacret/internal/obs"
	"lacret/internal/plan"
)

// spec is the part of BENCHMARK.json the test checks against.
type spec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tailSpec returns the --tail argument of the benchmark's command.
func (s spec) tailSpec(t *testing.T) string {
	for i, a := range s.Command {
		if a == "--tail" && i+1 < len(s.Command) {
			return s.Command[i+1]
		}
	}
	t.Fatal("BENCHMARK.json command has no --tail")
	return ""
}

// shortOptions returns options for a one-second run of a workload,
// building lacretd first when the workload needs it.
func shortOptions(t *testing.T, workload string) options {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lacretd")
	if workload == "daemon-iterate" {
		cmd := exec.Command("go", "build", "-o", bin, "lacret/cmd/lacretd")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building lacretd: %v\n%s", err, out)
		}
	}
	return options{workload: workload, seed: 7, seconds: 1, lacretd: bin, work: t.TempDir(), gomaxprocs: 2, corruptOp: -1}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	for _, pair := range []struct {
		name      string
		json, src []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, layerMetrics}} {
		if len(pair.json) != len(pair.src) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", pair.name, len(pair.json), len(pair.src))
		}
		for i := range pair.json {
			if pair.json[i] != pair.src[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", pair.name, i, pair.json[i], pair.src[i])
			}
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestShortPass runs every workload briefly, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its unit.
func TestShortPass(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		o := shortOptions(t, w.Name)
		for _, traced := range []bool{false, true} {
			o.trace = traced
			res, err := run(o, s.tailSpec(t))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestWrongResultCounted forces one op to return a wrong result and checks
// that the run counts it as failed.
func TestWrongResultCounted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range []string{"plan-pass", "daemon-iterate"} {
		o := shortOptions(t, w)
		o.corruptOp = 0
		res, err := run(o, s.tailSpec(t))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Failed < 1 || res.Correct {
			t.Errorf("%s: corrupted op gave correct=%v failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestRetimeWorkCounted checks that the counters the lac-rounds isolation
// check reads are the ones the period search writes: planning through the
// periods stage with a recorder on the context moves both.
func TestRetimeWorkCounted(t *testing.T) {
	p, _ := bench89.ByName("s386")
	nl, err := bench89.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tableConfig(p)
	st, err := plan.NewState(nl, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := context.Background()
	prep, _ := stagesThrough("periods")
	if _, err := runStages(obs.NewContext(ctx, rec), ctx, st, &cfg, prep); err != nil {
		t.Fatal(err)
	}
	if probes, pairs := retimeWork(rec.Registry()); probes == 0 || pairs == 0 {
		t.Errorf("period search under a recorder: retime.probes %d, retime.pairs_scanned %d; want both > 0", probes, pairs)
	}
}

// TestTraceFile checks that a traced run writes its spans as a Chrome trace
// with the stage spans under each traced pass.
func TestTraceFile(t *testing.T) {
	s := loadSpec(t)
	o := shortOptions(t, "plan-pass")
	o.trace = true
	if _, err := run(o, s.tailSpec(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(o.work, "traces", "plan-pass-seed7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			count[ev.Name]++
		}
	}
	if count["pass"] == 0 || count["periods"] != count["pass"] || count["lac"] != count["pass"] {
		t.Errorf("trace spans %v: want one periods and one lac span per pass", count)
	}
}
