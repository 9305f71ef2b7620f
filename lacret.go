// Package lacret reproduces "Interconnect Planning with Local Area
// Constrained Retiming" (Lu & Koh, DATE 2003): an early physical-planning
// flow that combines global routing, repeater insertion, and retiming of
// both logic and interconnect under per-tile area constraints, so that
// relocated flip-flops never overflow the floorplan.
//
// The package is a facade over the implementation packages:
//
//   - netlist model with an ISCAS89 ".bench" parser and a synthetic
//     ISCAS89-class benchmark generator;
//   - Fiduccia–Mattheyses partitioning, sequence-pair floorplanning, a
//     tile grid, congestion-aware global routing, and Lmax-constrained
//     repeater insertion;
//   - a Leiserson–Saxe retiming engine (on-demand W/D rows, min-period,
//     min-cost-flow minimum-area retiming);
//   - the paper's LAC-retiming heuristic (adaptively weighted min-area
//     retimings).
//
// Quickstart:
//
//	nl, _ := lacret.GenerateCircuit(lacret.CircuitParams{
//		Name: "demo", Gates: 200, DFFs: 16, Inputs: 8, Outputs: 8,
//		Depth: 12, MaxFanin: 4, Seed: 1,
//	})
//	res, err := lacret.Plan(nl, lacret.Config{Seed: 1})
//	if err != nil { ... }
//	fmt.Printf("Tclk=%.2fns  min-area violations=%d  LAC violations=%d\n",
//		res.Tclk, res.MinArea.NFOA, res.LAC.NFOA)
package lacret

import (
	"context"
	"io"

	"lacret/internal/bench89"
	"lacret/internal/check"
	"lacret/internal/core"
	"lacret/internal/mcr"
	"lacret/internal/netlist"
	"lacret/internal/plan"
	"lacret/internal/render"
	"lacret/internal/retime"
	"lacret/internal/sim"
	"lacret/internal/sta"
	"lacret/internal/tech"
)

// Netlist is a gate-level / RT-level sequential netlist.
type Netlist = netlist.Netlist

// NodeID identifies a netlist node.
type NodeID = netlist.NodeID

// Tech bundles process parameters (wire RC, repeater drive, areas, Lmax).
type Tech = tech.Tech

// Config tunes the interconnect-planning flow.
type Config = plan.Config

// Result is a complete planning outcome (floorplan, routing, retiming
// graph, Tinit/Tmin/Tclk, and both retiming results).
type Result = plan.Result

// Iteration is one planning pass of PlanIterations.
type Iteration = plan.Iteration

// PlanState threads the intermediate artifacts of one planning pass through
// the pipeline stages (partition, floorplan, grid, routing, ...).
type PlanState = plan.PlanState

// Stage is one step of the planning pipeline, operating on a PlanState.
type Stage = plan.Stage

// StageEvent is one per-stage trace record (name, wall time, counters),
// streamed through Config.Trace and accumulated on Result.Trace.
type StageEvent = plan.StageEvent

// Counter is one named metric attached to a StageEvent.
type Counter = plan.Counter

// Budget is the soft wall-clock limit of one planning pass; anytime stages
// degrade to their best-so-far result at the deadline (Config.Budget).
type Budget = plan.Budget

// StageError wraps a failure inside one pipeline stage; panics in library
// code are recovered into StageErrors carrying the stage name and stack.
type StageError = plan.StageError

// ErrBudgetExceeded is the retiming period search's anytime error: the
// context expired mid-search and Partial carries the proven bracket.
type ErrBudgetExceeded = retime.ErrBudgetExceeded

// MinPeriodPartial is the bracket state of an interrupted period search.
type MinPeriodPartial = retime.MinPeriodPartial

// LACOptions tunes the LAC-retiming loop (alpha, Nmax).
type LACOptions = core.Options

// LACResult is the outcome of a (LAC- or min-area) retiming.
type LACResult = core.Result

// LACProblem is a standalone local-area-constrained retiming instance, for
// callers that bring their own retiming graph and tile capacities.
type LACProblem = core.Problem

// RetimingGraph is the Leiserson–Saxe retiming graph with interconnect
// units.
type RetimingGraph = retime.Graph

// VertexKind classifies retiming-graph vertices.
type VertexKind = retime.VertexKind

// Vertex kinds: functional units, interconnect units, port pins.
const (
	KindUnit = retime.KindUnit
	KindWire = retime.KindWire
	KindPort = retime.KindPort
)

// CircuitParams describes a synthetic ISCAS89-class benchmark circuit.
type CircuitParams = bench89.Params

// ErrTclkInfeasible reports that a fixed target period cannot be met.
type ErrTclkInfeasible = plan.ErrTclkInfeasible

// NewNetlist returns an empty netlist with the given name.
func NewNetlist(name string) *Netlist { return netlist.New(name) }

// ParseBench reads an ISCAS89 .bench description.
func ParseBench(name string, r io.Reader) (*Netlist, error) {
	return netlist.ParseBench(name, r)
}

// WriteBench emits a netlist in .bench format.
func WriteBench(w io.Writer, n *Netlist) error { return netlist.WriteBench(w, n) }

// GenerateCircuit builds a synthetic ISCAS89-class circuit.
func GenerateCircuit(p CircuitParams) (*Netlist, error) { return bench89.Generate(p) }

// Catalog lists the ten Table 1 benchmark circuits plus the s100k scale
// tier (marked CircuitParams.ScaleTier).
func Catalog() []CircuitParams { return bench89.Catalog() }

// CircuitByName returns the catalog entry with the given name.
func CircuitByName(name string) (CircuitParams, bool) { return bench89.ByName(name) }

// DefaultTech returns the 180nm-class default technology.
func DefaultTech() Tech { return tech.Default() }

// Plan runs the full interconnect-planning flow: partition → floorplan →
// tile grid → global routing → repeater insertion → retiming-graph
// construction → min-area and LAC retiming at Tclk.
func Plan(nl *Netlist, cfg Config) (*Result, error) { return plan.Plan(nl, cfg) }

// PlanContext is Plan under a context (hard stop at stage boundaries and
// checkpoints) and the configured soft Budget (anytime degradation). On a
// pipeline error the partial Result built so far accompanies it.
func PlanContext(ctx context.Context, nl *Netlist, cfg Config) (*Result, error) {
	return plan.PlanContext(ctx, nl, cfg)
}

// PlanIterations runs up to maxIters planning passes with floorplan
// expansion between passes (the paper's second-iteration flow); passes
// after the first reuse the partition and re-enter the pipeline at the
// floorplan stage.
func PlanIterations(nl *Netlist, cfg Config, maxIters int) ([]Iteration, error) {
	return plan.PlanIterations(nl, cfg, maxIters)
}

// PlanIterationsContext is PlanIterations under a context: cancellation
// stops the expansion loop between passes and the running pass at its next
// stage boundary, keeping every finished iteration.
func PlanIterationsContext(ctx context.Context, nl *Netlist, cfg Config, maxIters int) ([]Iteration, error) {
	return plan.PlanIterationsContext(ctx, nl, cfg, maxIters)
}

// NewPlanState validates inputs, resolves configuration defaults in place,
// and returns a fresh pipeline state; drive it with PlanState.Run over
// DefaultStages (or any custom stage list) for stage-level control of the
// flow Plan runs in one shot.
func NewPlanState(nl *Netlist, cfg *Config) (*PlanState, error) { return plan.NewState(nl, cfg) }

// DefaultStages returns the paper's pipeline: partition → floorplan → tile
// grid → global routing → repeater planning → retiming-graph build →
// periods → constraints → min-area retiming → LAC-retiming.
func DefaultStages() []Stage { return plan.DefaultStages() }

// ExpandedConfig derives the next-iteration configuration from a violating
// result (expanding congested blocks and channels, carrying Tclk over).
func ExpandedConfig(cfg Config, res *Result) Config { return plan.ExpandedConfig(cfg, res) }

// CountInterconnectFFs counts flip-flops residing inside interconnects
// (the paper's N_FN) in a retimed graph.
func CountInterconnectFFs(g *RetimingGraph) int { return plan.CountInterconnectFFs(g) }

// TimingReport is a static-timing-analysis result (arrivals, slacks,
// critical path) for a retiming graph at a target period.
type TimingReport = sta.Report

// AnalyzeTiming runs static timing analysis at period T.
func AnalyzeTiming(g *RetimingGraph, T float64) (*TimingReport, error) { return sta.Analyze(g, T) }

// FormatCriticalPath renders a report's critical path with unit names,
// kinds, delays, and arrivals.
func FormatCriticalPath(g *RetimingGraph, rep *TimingReport) string { return sta.FormatPath(g, rep) }

// MaxCycleRatio returns the iteration bound of a retiming graph — the
// delay-to-register ratio of its worst cycle, a lower bound on any
// achievable clock period.
func MaxCycleRatio(g *RetimingGraph) float64 { return mcr.MaxCycleRatio(g, 1e-6).Ratio }

// Verify re-derives every number a planning result reports and confirms
// the formulation's invariants; it returns the list of verified facts.
func Verify(res *Result) ([]string, error) {
	out, err := check.Verify(res)
	if err != nil {
		return nil, err
	}
	return out.Checks, nil
}

// VerifyState validates a (possibly partial) pipeline state: artifacts of
// stages that have run are checked against their invariants, later stages'
// are skipped. After a complete pass it subsumes Verify.
func VerifyState(st *PlanState) ([]string, error) {
	out, err := check.VerifyState(st)
	if err != nil {
		return nil, err
	}
	return out.Checks, nil
}

// RenderSVG draws the planning result (floorplan, tile grid, routes,
// violated tiles) as a standalone SVG document.
func RenderSVG(res *Result) string { return render.SVG(res, render.DefaultOptions()) }

// CheckRetimingEquivalence proves by 64-lane random simulation that the
// retiming labels r preserve the circuit's primary-output behavior. ops
// can be derived from a planning result with SimOps.
func CheckRetimingEquivalence(g *RetimingGraph, ops []SimOp, r []int, steps int, seed int64) error {
	return sim.CheckRetimingEquivalence(g, ops, r, steps, seed)
}

// SimOp is a simulator Boolean function.
type SimOp = sim.Op

// SimOps derives per-vertex simulator functions for a planned design.
func SimOps(res *Result) ([]SimOp, error) { return sim.OpsFromGraph(res.Graph, res.Netlist) }
