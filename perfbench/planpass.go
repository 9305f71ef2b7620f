package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"lacret/internal/bench89"
	"lacret/internal/check"
	"lacret/internal/experiments"
	"lacret/internal/netlist"
	"lacret/internal/plan"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// planCircuit is the plan-pass circuit: a Table 1 circuit whose pass is
// dominated by the retiming stages (periods and constraints) and short
// enough for tens of passes in one run.
const planCircuit = "s820"

// headline is the part of a planning result every op must reproduce
// exactly: the paper's Table 1 quantities plus the constraint count.
type headline struct {
	Tinit, Tmin, Tclk      float64
	MinAreaNFOA, MinAreaNF int
	LACNFOA, LACNF, LACNWR int
	Constraints            int
}

func headlineOf(res *plan.Result) headline {
	h := headline{Tinit: res.Tinit, Tmin: res.Tmin, Tclk: res.Tclk}
	if res.MinArea != nil {
		h.MinAreaNFOA, h.MinAreaNF = res.MinArea.NFOA, res.MinArea.NF
	}
	if res.LAC != nil {
		h.LACNFOA, h.LACNF, h.LACNWR = res.LAC.NFOA, res.LAC.NF, res.LAC.NWR
	}
	if res.Problem != nil && res.Problem.Constraints != nil {
		h.Constraints = len(res.Problem.Constraints.Cons)
	}
	return h
}

// tableConfig is the Table 1 planning configuration for a catalog
// circuit, planned at its catalog seed as cmd/table1 does.
func tableConfig(p bench89.Params) plan.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = p.Seed
	return cfg
}

// runStages runs stages one at a time through PlanState.RunContext, under
// ctx. When tctx carries a benchmark span, each stage also gets a child
// span of it and a record of its wall time, allocation and event counters.
func runStages(ctx, tctx context.Context, st *plan.PlanState, cfg *plan.Config, stages []plan.Stage) ([]stageRec, error) {
	var recs []stageRec
	for _, s := range stages {
		sp := startSpan(tctx, s.Name())
		err := st.RunContext(ctx, []plan.Stage{s}, cfg)
		d := sp.end()
		if err != nil {
			return nil, fmt.Errorf("stage %s: %w", s.Name(), err)
		}
		if sp.sp == nil {
			continue
		}
		c := eventCounters(st.Result.Trace[len(st.Result.Trace)-1])
		if s.Name() == "periods" {
			c["index_pairs"] = float64(st.Result.Probe.IndexPairs)
		}
		recs = append(recs, stageRec{s.Name(), d.wallMS, d.allocMB, c})
	}
	return recs, nil
}

// planFull plans one full pass of nl, tracing its stages under tctx.
func planFull(ctx, tctx context.Context, nl *netlist.Netlist, cfg plan.Config) (*plan.Result, []stageRec, error) {
	st, err := plan.NewState(nl, &cfg)
	if err != nil {
		return nil, nil, err
	}
	recs, err := runStages(ctx, tctx, st, &cfg, plan.DefaultStages())
	if err != nil {
		return nil, nil, err
	}
	return st.Result, recs, nil
}

func runPlanPass(o options) (*outcome, error) {
	p, ok := bench89.ByName(planCircuit)
	if !ok {
		return nil, fmt.Errorf("no catalog circuit %s", planCircuit)
	}
	cfg := tableConfig(p)
	ctx := context.Background()
	out := newOutcome(o.trace)

	// Set-up: input generation plus one untimed warm-up pass, several
	// times. The first warm-up result is verified and becomes the
	// reference every later pass must reproduce.
	var ref headline
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		nl, err := bench89.Generate(p)
		if err != nil {
			return nil, err
		}
		res, _, err := planFull(ctx, ctx, nl, cfg)
		if err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		if i == 0 {
			t := time.Now()
			if _, err := check.Verify(res); err != nil {
				out.problem("check.Verify %s: %v", planCircuit, err)
			}
			out.layer["check.verify_ms"] = ms(time.Since(t))
			ref = headlineOf(res)
			fmt.Fprintf(os.Stderr, "reference %s seed %d: %+v\n", planCircuit, cfg.Seed, ref)
		} else if h := headlineOf(res); h != ref {
			out.problem("warm-up pass %d: %+v, want %+v", i, h, ref)
		}
	}

	// Measured window: one fresh, untimed-generated netlist per pass. In a
	// traced run every other pass is traced: a "pass" span with one child
	// span per stage. The untraced passes give the tracing overhead.
	var traced, untraced []float64
	var layerOps []opTrace
	coverage := 1.0
	client := out.clientSpan(0)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		nl, err := bench89.Generate(p)
		if err != nil {
			return nil, err
		}
		tctx := ctx
		if o.trace && i%2 == 0 {
			tctx = client.ctx
		}
		out.attempted++
		t0 := time.Now()
		pass := startSpan(tctx, "pass")
		res, recs, err := planFull(ctx, pass.ctx, nl, cfg)
		d := pass.end()
		t1 := time.Now()
		if err != nil {
			out.fail("pass %d: %v", i, err)
			continue
		}
		lat := ms(t1.Sub(t0))
		out.op(t0, t1)
		out.ops = append(out.ops, lat)
		if i == o.corruptOp {
			res.LAC.NWR++
		}
		if h := headlineOf(res); h != ref {
			out.fail("pass %d: %+v, want %+v", i, h, ref)
		}
		if pass.sp == nil {
			untraced = append(untraced, lat)
			continue
		}
		traced = append(traced, lat)
		rec := opTrace{Stages: recs, GCCycles: float64(d.gc)}
		var stageMS float64
		for _, r := range recs {
			stageMS += r.WallMS
		}
		for _, it := range res.LAC.Iters {
			rec.Rounds = append(rec.Rounds, it.Duration)
		}
		layerOps = append(layerOps, rec)
		coverage = min(coverage, stageMS/lat)
	}
	client.end()
	if o.trace {
		addStageLayers(out.layer, layerOps)
		out.layer["plan.span_coverage"] = coverage
		out.layer["trace.overhead_ms"] = median(traced) - median(untraced)
		if coverage < 0.95 {
			out.problem("stage spans cover %.3f of a pass, want >= 0.95", coverage)
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.peakRSSMB = rss
	return out, nil
}
