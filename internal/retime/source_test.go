package retime

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func rowsEqual(a, b []SourcePair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDenseLazyRowsEqual pins the engine's bit-identity claim at the row
// level: at the same floor, the lazy sweep engine serves exactly the rows
// the cold dense matrices give (same pairs, same order, same D and DPrune
// values) on random graphs.
func TestDenseLazyRowsEqual(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 4+rng.Intn(8), seed%2 == 0)
		wd := coldWDMatrices(rg)
		for _, floor := range []float64{0, maxVertexDelay(rg)} {
			lazy := NewLazySource(rg, floor, 0)
			if lazy.N() != rg.N() || lazy.Floor() != floor {
				t.Fatalf("seed %d: source metadata mismatch", seed)
			}
			// The second pass reads cached rows, which must be identical too.
			for pass := 0; pass < 2; pass++ {
				for u := 0; u < rg.N(); u++ {
					dr, lr := wd.row(rg, u, floor), lazy.Row(u)
					if !rowsEqual(dr, lr) {
						t.Fatalf("seed %d floor %g pass %d: row %d differs:\ndense %v\nlazy  %v",
							seed, floor, pass, u, dr, lr)
					}
				}
			}
		}
	}
}

// TestLazyConstraintsMatchDense: the full constraint system generated
// through the lazy engine — the planner's shared source and the one-shot
// source of BuildConstraints alike — equals the cold dense system at every
// tested period.
func TestLazyConstraintsMatchDense(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 5+rng.Intn(6), seed%2 == 1)
		wd := coldWDMatrices(rg)
		floor := maxVertexDelay(rg)
		lazy := NewLazySource(rg, floor, 0)
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		for _, T := range []float64{floor, (floor + p) / 2, p, p * 1.5} {
			want, werr := coldConstraints(rg, T, wd)
			got, gerr := rg.BuildConstraintsFrom(T, lazy)
			oneShot, oerr := rg.BuildConstraints(T)
			if (werr == nil) != (gerr == nil) || (werr == nil) != (oerr == nil) {
				t.Fatalf("seed %d T=%g: dense err %v, lazy err %v, one-shot err %v", seed, T, werr, gerr, oerr)
			}
			if werr != nil {
				continue
			}
			if !reflect.DeepEqual(got.Cons, oneShot.Cons) {
				t.Fatalf("seed %d T=%g: shared and one-shot sources disagree", seed, T)
			}
			if len(want.Cons) != len(got.Cons) {
				t.Fatalf("seed %d T=%g: %d dense constraints, %d lazy", seed, T, len(want.Cons), len(got.Cons))
			}
			for i := range want.Cons {
				if want.Cons[i] != got.Cons[i] {
					t.Fatalf("seed %d T=%g: constraint %d: dense %+v lazy %+v",
						seed, T, i, want.Cons[i], got.Cons[i])
				}
			}
			if want.ClockCount != got.ClockCount || want.EdgeCount != got.EdgeCount || want.PinCount != got.PinCount {
				t.Fatalf("seed %d T=%g: count mismatch dense %+v lazy %+v", seed, T, want, got)
			}
		}
	}
}

// TestLazyMinPeriodMatchesDense: the whole search — Tmin and the realizing
// labeling — is bit-identical to a cold search over the dense oracle on
// random graphs.
func TestLazyMinPeriodMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 4+rng.Intn(7), seed%3 == 0)
		wantT, wantR, err := coldMinPeriod(rg, 1e-3, coldWDMatrices(rg))
		if err != nil {
			t.Fatal(err)
		}
		lazy := NewLazySource(rg, maxVertexDelay(rg), 0)
		gotT, gotR, _, err := rg.MinPeriodSourceStatsContext(context.Background(), 1e-3, lazy)
		if err != nil {
			t.Fatal(err)
		}
		if gotT != wantT {
			t.Fatalf("seed %d: lazy Tmin %g != dense %g", seed, gotT, wantT)
		}
		if !labelsEqual(gotR, wantR) {
			t.Fatalf("seed %d: lazy labeling %v != dense %v", seed, gotR, wantR)
		}
	}
}

// TestLazyMinPeriodMatchesDenseBench89 repeats the search equivalence on
// realistic collapsed circuit structures.
func TestLazyMinPeriodMatchesDenseBench89(t *testing.T) {
	for _, name := range []string{"s386", "s400"} {
		t.Run(name, func(t *testing.T) {
			rg := bench89Graph(t, name)
			wantT, wantR, err := coldMinPeriod(rg, 1e-3, coldWDMatrices(rg))
			if err != nil {
				t.Fatal(err)
			}
			lazy := NewLazySource(rg, maxVertexDelay(rg), 0)
			gotT, gotR, _, err := rg.MinPeriodSourceStatsContext(context.Background(), 1e-3, lazy)
			if err != nil {
				t.Fatal(err)
			}
			if gotT != wantT || !labelsEqual(gotR, wantR) {
				t.Fatalf("lazy (T=%g) != dense (T=%g)", gotT, wantT)
			}
		})
	}
}

// TestLazyCacheEviction squeezes the row cache to a handful of pairs: rows
// must survive eviction (recomputed sweeps still bit-identical), and the
// accounting must register the evictions.
func TestLazyCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rg := randomGraph(rng, 12, false)
	wd := coldWDMatrices(rg)
	lazy := NewLazySource(rg, 0, 4) // ~one small row per shard
	for pass := 0; pass < 3; pass++ {
		for u := 0; u < rg.N(); u++ {
			if !rowsEqual(wd.row(rg, u, 0), lazy.Row(u)) {
				t.Fatalf("pass %d: row %d differs after eviction pressure", pass, u)
			}
		}
	}
	mem := lazy.Mem()
	if mem.Evictions == 0 {
		t.Fatalf("no evictions under a 4-pair budget: %+v", mem)
	}
	if mem.CachedPairs < 0 || mem.CachedRows < 0 {
		t.Fatalf("negative cache accounting: %+v", mem)
	}
	if mem.Sweeps == 0 {
		t.Fatalf("no sweeps recorded: %+v", mem)
	}
}

// TestLazySourceAbandonsPeriphery: with the floor at the maximum vertex
// delay, sources whose every outgoing path stays at or below the floor
// (sinks, shallow periphery) are answered without any sweep.
func TestLazySourceAbandonsPeriphery(t *testing.T) {
	rg := NewGraph()
	a := rg.AddVertex("a", KindUnit, 5) // the max-delay vertex
	b := rg.AddVertex("b", KindUnit, 1)
	c := rg.AddVertex("c", KindUnit, 1) // sink: no outgoing path
	rg.AddEdge(a, b, 1)
	rg.AddEdge(b, a, 1)
	rg.AddEdge(b, c, 1)
	lazy := NewLazySource(rg, maxVertexDelay(rg), 0)
	if row := lazy.Row(c); row != nil {
		t.Fatalf("sink row = %v, want nil", row)
	}
	if mem := lazy.Mem(); mem.Abandoned == 0 || mem.Sweeps != 0 {
		t.Fatalf("expected an abandoned source and no sweeps, got %+v", mem)
	}
	// a and b reach the cycle: suffix +Inf, never abandoned.
	lazy.Row(a)
	if mem := lazy.Mem(); mem.Sweeps == 0 {
		t.Fatalf("cyclic-core source did not sweep: %+v", mem)
	}
}

// TestLazyMinPeriodBudgetAbortsIndexBuild: an expired context stops the
// search during solver construction — with a lazy source, the index build
// is the bulk of the sweep work — and degrades to the zero-probe partial
// (Hi = the unretimed period) instead of sweeping on past the deadline.
func TestLazyMinPeriodBudgetAbortsIndexBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rg := randomGraph(rng, 12, true)
	src := NewLazySource(rg, maxVertexDelay(rg), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := rg.MinPeriodSourceStatsContext(ctx, 1e-3, src)
	var beb *ErrBudgetExceeded
	if !errors.As(err, &beb) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if beb.Partial.Probes != 0 {
		t.Fatalf("probes = %d, want 0", beb.Partial.Probes)
	}
	p, perr := rg.Period()
	if perr != nil {
		t.Fatal(perr)
	}
	if beb.Partial.Hi != p {
		t.Fatalf("partial Hi = %g, want unretimed period %g", beb.Partial.Hi, p)
	}
	if got := src.Mem().Sweeps; got != 0 {
		t.Fatalf("aborted build ran %d sweeps", got)
	}
}

// TestLazyCacheScaleSheds drops the process-wide cache scale and verifies
// the shards shed down to the reduced budget on their next insertions —
// still serving bit-identical rows — then restores full budget behavior
// when the scale returns to 100.
func TestLazyCacheScaleSheds(t *testing.T) {
	defer SetLazyCacheScale(100)
	rng := rand.New(rand.NewSource(3))
	rg := randomGraph(rng, 16, false)
	wd := coldWDMatrices(rg)
	// Ample at full scale (nothing evicts) but small enough that 1% of it
	// is below the resident pair count, so the shed has real work to do.
	lazy := NewLazySource(rg, 0, 2048)
	for u := 0; u < rg.N(); u++ {
		lazy.Row(u)
	}
	before := lazy.Mem()
	if before.Evictions != 0 {
		t.Fatalf("evictions under an ample budget: %+v", before)
	}
	if before.CachedPairs == 0 {
		t.Skip("graph produced no cacheable pairs")
	}

	if prev := SetLazyCacheScale(0); prev != 100 {
		t.Fatalf("previous scale = %d, want 100", prev)
	}
	if LazyCacheScale() != 1 {
		t.Fatalf("scale = %d after clamped set, want 1", LazyCacheScale())
	}
	// Re-touch every row: evicted rows recompute, and every insertion
	// evicts down to ~1 pair per shard.
	for u := 0; u < rg.N(); u++ {
		if !rowsEqual(wd.row(rg, u, 0), lazy.Row(u)) {
			t.Fatalf("row %d differs under shed budget", u)
		}
	}
	after := lazy.Mem()
	if after.Evictions == 0 {
		t.Fatalf("no evictions after shedding to 1%%: %+v", after)
	}
	if after.CachedPairs >= before.CachedPairs {
		t.Fatalf("cache did not shrink: %d -> %d pairs", before.CachedPairs, after.CachedPairs)
	}

	if prev := SetLazyCacheScale(100); prev != 1 {
		t.Fatalf("previous scale = %d, want 1", prev)
	}
	evBase := lazy.Mem().Evictions
	for u := 0; u < rg.N(); u++ {
		if !rowsEqual(wd.row(rg, u, 0), lazy.Row(u)) {
			t.Fatalf("row %d differs after budget restore", u)
		}
	}
	if ev := lazy.Mem().Evictions; ev != evBase {
		t.Fatalf("evictions after restoring scale 100: %d -> %d", evBase, ev)
	}
}

// TestLazyRowsParallelMatchSequential: rows served to concurrent callers
// spread across every shard match the oracle bit for bit (rows are
// independent, so any divergence is a sharing bug in the shard scratch or
// the LRU).
func TestLazyRowsParallelMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		rg := nastyGraph(rng, indexParallelThreshold+8, 1)
		wd := coldWDMatrices(rg)
		lazy := NewLazySource(rg, 0, 64) // small budget: evictions mid-run
		got := make([][]SourcePair, rg.N())
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for u := w; u < rg.N(); u += 8 {
					got[u] = lazy.Row(u)
				}
			}(w)
		}
		wg.Wait()
		for u := range got {
			if !rowsEqual(got[u], wd.row(rg, u, 0)) {
				t.Fatalf("trial %d: row %d served concurrently differs from the oracle", trial, u)
			}
		}
	}
}
