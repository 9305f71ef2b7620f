package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"lacret/internal/bench89"
	"lacret/internal/check"
	"lacret/internal/core"
	"lacret/internal/obs"
	"lacret/internal/plan"
)

// lacCircuit is the lac-rounds circuit: the Table 1 circuit whose LAC loop
// runs the most reweighting rounds at the paper's alpha and Nmax.
const lacCircuit = "s1196"

// lacHeadline is what every LAC solve must reproduce.
type lacHeadline struct {
	NFOA, NF, NWR int
	Truncated     bool
}

func lacHeadlineOf(r *core.Result) lacHeadline {
	return lacHeadline{r.NFOA, r.NF, r.NWR, r.Truncated}
}

// stagesThrough returns the default stages up to and including last.
func stagesThrough(last string) ([]plan.Stage, []plan.Stage) {
	all := plan.DefaultStages()
	for i, s := range all {
		if s.Name() == last {
			return all[:i+1], all[i+1:]
		}
	}
	return all, nil
}

func runLACRounds(o options) (*outcome, error) {
	p, ok := bench89.ByName(lacCircuit)
	if !ok {
		return nil, fmt.Errorf("no catalog circuit %s", lacCircuit)
	}
	cfg := tableConfig(p)
	ctx := context.Background()
	out := newOutcome(o.trace)
	prep, rest := stagesThrough("constraints")

	// Set-up: plan through the constraints stage, then one untimed warm-up
	// solve, several times. The first is completed with the min-area stage
	// and verified; its LAC result is the reference.
	var (
		st  *plan.PlanState
		c   plan.Config
		ref lacHeadline
	)
	for i := 0; i < setupRuns; i++ {
		// Collect the previous set-up's engine (a dense W/D matrix pair)
		// before the next, outside the timed span, so that peak_rss_mb
		// measures one planning state rather than the leftovers of three.
		st = nil
		runtime.GC()
		t0 := time.Now()
		nl, err := bench89.Generate(p)
		if err != nil {
			return nil, err
		}
		c = cfg
		if st, err = plan.NewState(nl, &c); err != nil {
			return nil, err
		}
		if _, err := runStages(ctx, ctx, st, &c, prep); err != nil {
			return nil, err
		}
		lac, err := st.Result.Problem.SolveContext(ctx, c.LAC)
		if err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		if i > 0 {
			if h := lacHeadlineOf(lac); h != ref {
				out.problem("warm-up solve %d: %+v, want %+v", i, h, ref)
			}
			continue
		}
		if _, err := runStages(ctx, ctx, st, &c, rest[:1]); err != nil { // minarea
			return nil, err
		}
		res := st.Result
		res.LAC, res.LACNFN = lac, plan.CountInterconnectFFs(lac.Retimed)
		t := time.Now()
		if _, err := check.Verify(res); err != nil {
			out.problem("check.Verify %s: %v", lacCircuit, err)
		}
		out.layer["check.verify_ms"] = ms(time.Since(t))
		ref = lacHeadlineOf(lac)
		fmt.Fprintf(os.Stderr, "reference %s seed %d: %+v, %d constraints\n",
			lacCircuit, cfg.Seed, ref, len(res.Problem.Constraints.Cons))
	}
	prob := st.Result.Problem
	if prob.Constraints == nil {
		return nil, fmt.Errorf("constraints stage left no prebuilt constraint system")
	}

	// Isolation check, untimed: one solve of the problem the window times,
	// with an obs recorder on its context. The period search counts its
	// probes and scanned pairs in that recorder's registry; a LAC solve
	// must leave both at 0. Its lac.rounds counter shows the recorder
	// reached the solve.
	rec := obs.NewRecorder()
	chk, err := prob.SolveContext(obs.NewContext(ctx, rec), c.LAC)
	if err != nil {
		return nil, fmt.Errorf("isolation-check solve: %w", err)
	}
	if h := lacHeadlineOf(chk); h != ref {
		out.problem("isolation-check solve: %+v, want %+v", h, ref)
	}
	probes, pairs := retimeWork(rec.Registry())
	rounds := rec.Registry().Counter("lac.rounds").Value()
	if probes != 0 || pairs != 0 || rounds == 0 {
		out.problem("a LAC solve ran %d period probes scanning %d pairs in %d rounds, want 0 probes, 0 pairs, > 0 rounds",
			probes, pairs, rounds)
	}
	fmt.Fprintf(os.Stderr, "isolation check: a LAC solve ran %d period probes, scanned %d pairs, in %d rounds\n", probes, pairs, rounds)
	out.layer["retime.probes"] = float64(probes)
	out.layer["retime.pairs_scanned"] = float64(pairs)

	// Measured window. In a traced run every other solve is traced.
	var traced, untraced []float64
	var layerOps []opTrace
	client := out.clientSpan(0)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		tctx := ctx
		if o.trace && i%2 == 0 {
			tctx = client.ctx
		}
		out.attempted++
		t0 := time.Now()
		sp := startSpan(tctx, "solve")
		lac, err := prob.SolveContext(ctx, c.LAC)
		d := sp.end()
		t1 := time.Now()
		if err != nil {
			out.fail("solve %d: %v", i, err)
			continue
		}
		lat := ms(t1.Sub(t0))
		out.op(t0, t1)
		out.ops = append(out.ops, lat)
		if i == o.corruptOp {
			lac.NWR++
		}
		if h := lacHeadlineOf(lac); h != ref {
			out.fail("solve %d: %+v, want %+v", i, h, ref)
		}
		if sp.sp == nil {
			untraced = append(untraced, lat)
			continue
		}
		traced = append(traced, lat)
		op := opTrace{
			Stages:   []stageRec{{"lac", d.wallMS, d.allocMB, lacCounters(lac)}},
			GCCycles: float64(d.gc),
		}
		for _, it := range lac.Iters {
			op.Rounds = append(op.Rounds, it.Duration)
		}
		layerOps = append(layerOps, op)
	}
	client.end()
	if o.trace {
		addStageLayers(out.layer, layerOps)
		out.layer["trace.overhead_ms"] = median(traced) - median(untraced)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.peakRSSMB = rss
	return out, nil
}
