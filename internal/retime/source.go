package retime

import (
	"math"
	"sort"

	"lacret/internal/graph"
)

// SourcePair is one candidate clock-constraint pair served by a
// LazySource: for source u and destination V, the clock constraint
// r(u) − r(V) ≤ Bound (= W(u,V) − 1) activates at period T iff
// D > activation(T).
//
// DPrune folds in the dominance rule of clockConstraints: it is the
// largest D(u,v') over W-tight in-edges (v',V) when that value exceeds the
// source's cut, and −Inf otherwise (below the cut the exact value can never
// matter: every probe-able period's activation threshold is at least the
// cut, so the dominating pair is inactive there regardless). A consumer at
// period T drops the pair as implied iff DPrune > activation(T); a consumer
// covering every period at once (the FeasSolver index) never sees dominated-
// wherever-active pairs at all, because rows exclude pairs with D ≤ DPrune.
type SourcePair struct {
	V      int32
	Bound  int32
	D      float64
	DPrune float64
}

// SourceMem is a LazySource's memory/work accounting, surfaced as obs
// gauges and stage counters.
type SourceMem struct {
	// CachedRows / CachedPairs size the row cache.
	CachedRows  int64
	CachedPairs int64
	// Evictions counts rows dropped from the cache to stay in budget.
	Evictions int64
	// Sweeps counts per-source W/D sweeps run; Abandoned counts sources
	// skipped outright by the delay-pruned frontier (no path can exceed
	// the cut); Hits counts rows served from the cache.
	Sweeps    int64
	Abandoned int64
	Hits      int64
}

// assembleRow builds source u's candidate row from the per-destination
// W/D labels of one sweep (res[v] for every v; W < 0 marks unreachable):
// the pairs with D above cut that no W-tight in-edge dominates, sorted by
// sortRow. The test-side dense oracle assembles its rows through the same
// function, so rows agree exactly wherever the sweeps agree.
func assembleRow(rg *Graph, u int, res []graph.WDDist, cut float64) []SourcePair {
	var row []SourcePair
	for v, d := range res {
		if v == u || d.W < 0 || d.D <= cut {
			continue
		}
		dprune := math.Inf(-1)
		for _, ei := range rg.g.In(v) {
			e := rg.g.Edge(ei)
			vp := e.From
			if vp == v || vp == u {
				continue
			}
			if p := res[vp]; p.W >= 0 && p.W+e.W == d.W && p.D > dprune {
				dprune = p.D
			}
		}
		if d.D <= dprune {
			continue
		}
		if dprune <= cut {
			// Below the cut the dominating pair can never be active, and
			// the sweep's frontier pruning may understate D values in that
			// range; clamping keeps rows independent of the pruning and the
			// consumers' verdicts unchanged.
			dprune = math.Inf(-1)
		}
		row = append(row, SourcePair{V: int32(v), Bound: int32(d.W - 1), D: d.D, DPrune: dprune})
	}
	sortRow(row)
	return row
}

// sortRow orders a row by D descending, V ascending at ties — the
// deterministic activation order the FeasSolver materializes in.
func sortRow(row []SourcePair) {
	sort.Slice(row, func(i, j int) bool {
		if row[i].D != row[j].D {
			return row[i].D > row[j].D
		}
		return row[i].V < row[j].V
	})
}

// rowPrefixAbove returns the number of leading pairs with D > cut (rows are
// D-descending, so the qualifying set is a prefix).
func rowPrefixAbove(row []SourcePair, cut float64) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid].D > cut {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
