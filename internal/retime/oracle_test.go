package retime

import (
	"context"
	"fmt"
	"math"

	"lacret/internal/graph"
)

// coldWD is the tests' reference for the LazySource: the full all-pairs
// Leiserson–Saxe W/D matrices, row u holding one unpruned
// graph.WDSolver.FromSource sweep from u (W < 0 and D = −Inf mark
// unreachable destinations). It is the classical dense construction, the
// oracle the equivalence tests compare the engine against.
type coldWD [][]graph.WDDist

func coldWDMatrices(rg *Graph) coldWD {
	sv := graph.NewWDSolver(rg.g)
	wd := make(coldWD, rg.N())
	for u := range wd {
		wd[u] = make([]graph.WDDist, rg.N())
		sv.FromSource(u, rg.delay, wd[u])
	}
	return wd
}

// maxD returns the largest finite D value.
func (wd coldWD) maxD() float64 {
	m := 0.0
	for _, row := range wd {
		for _, d := range row {
			if d.W >= 0 && d.D > m {
				m = d.D
			}
		}
	}
	return m
}

// row is source u's candidate row at the given period floor, assembled
// from the full sweep the way the LazySource assembles it from its pruned
// one.
func (wd coldWD) row(rg *Graph, u int, floor float64) []SourcePair {
	return assembleRow(rg, u, wd[u], activation(floor))
}

// coldConstraints builds the full constraint system at T from the cold
// matrices: edge constraints, every clock constraint with D > T that no
// W-tight in-edge dominates, and pin constraints.
func coldConstraints(rg *Graph, T float64, wd coldWD) (*Constraints, error) {
	if math.IsNaN(T) || T <= 0 {
		return nil, fmt.Errorf("invalid target period %g", T)
	}
	for v := 0; v < rg.N(); v++ {
		if rg.delay[v] > T+periodTol(T) {
			return nil, ErrInfeasible{T: T}
		}
	}
	fT := activation(T)
	var clock []Constraint
	for u := range wd {
		for _, p := range wd.row(rg, u, T) {
			if p.DPrune <= fT {
				clock = append(clock, Constraint{U: u, V: int(p.V), Bound: int(p.Bound)})
			}
		}
	}
	sortConstraints(clock)
	edge, pin := rg.EdgeConstraints(), rg.PinConstraints()
	cs := &Constraints{N: rg.N(), EdgeCount: len(edge), ClockCount: len(clock), PinCount: len(pin)}
	cs.Cons = append(append(append(cs.Cons, edge...), clock...), pin...)
	return cs, nil
}

// coldProbe is the from-scratch feasibility oracle the incremental solver
// must match bit-for-bit: rebuild the full constraint system at T and run
// the solver cold. Build errors (invalid T, vertex delay above T) are the
// infeasible verdict, exactly as the period search treats them.
func coldProbe(rg *Graph, wd coldWD, T float64) (r []int, ok bool) {
	cs, err := coldConstraints(rg, T, wd)
	if err != nil {
		return nil, false
	}
	return cs.Feasible(rg)
}

// coldMinPeriod runs the period search on cold probes — same bracket
// logic, no incremental solver — as the bit-identity oracle for
// MinPeriodSourceStatsContext.
func coldMinPeriod(rg *Graph, eps float64, wd coldWD) (float64, []int, error) {
	if eps <= 0 {
		eps = 1e-4
	}
	hi, err := rg.Period()
	if err != nil {
		return 0, nil, err
	}
	lo := maxVertexDelay(rg)
	if hi < lo {
		hi = lo
	}
	bestT := hi
	bestR := make([]int, rg.N())
	probe := func(T float64) bool {
		labels, ok := coldProbe(rg, wd, T)
		if !ok {
			return false
		}
		applied, err := rg.Apply(labels)
		if err != nil {
			return false
		}
		p, err := applied.Period()
		if err != nil {
			return false
		}
		if p < bestT {
			bestT, bestR = p, labels
		}
		return true
	}
	probe(lo)
	for bestT-lo > eps {
		mid := (lo + bestT) / 2
		if !probe(mid) {
			lo = mid
		} else if bestT > mid+periodEps {
			break
		}
	}
	if err := rg.CheckFeasible(bestR, bestT); err != nil {
		return 0, nil, err
	}
	return bestT, bestR, nil
}

// minPeriod is the tests' shorthand for a validated period search on a
// fresh LazySource that serves every positive period.
func minPeriod(rg *Graph, eps float64) (float64, []int, error) {
	if err := rg.Validate(); err != nil {
		return 0, nil, err
	}
	T, r, _, err := rg.MinPeriodSourceStatsContext(context.Background(), eps, NewLazySource(rg, 0, 0))
	return T, r, err
}

// maxVertexDelay mirrors the period search's lower bracket end.
func maxVertexDelay(rg *Graph) float64 {
	lo := 0.0
	for v := 0; v < rg.N(); v++ {
		if d := rg.Delay(v); d > lo {
			lo = d
		}
	}
	return lo
}
