package plan

import (
	"reflect"
	"testing"
)

// TestProblemSourceRegeneratesConstraints: a core Problem carrying only the
// pass's constraint engine (no prebuilt constraint system) regenerates the
// system the constraints stage built, and so does a Problem with neither,
// which builds through a one-shot engine floored at Tclk.
func TestProblemSourceRegeneratesConstraints(t *testing.T) {
	nl := smallCircuit(t)
	res, err := Plan(nl, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Problem.Source == nil {
		t.Fatal("planned Problem carries no constraint source")
	}
	oneShot, err := res.Graph.BuildConstraints(res.Tclk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oneShot.Cons, res.Problem.Constraints.Cons) {
		t.Fatal("one-shot constraint build differs from the pass's shared engine")
	}
	for _, keepSource := range []bool{true, false} {
		p := *res.Problem
		p.Constraints = nil // force regeneration
		if !keepSource {
			p.Source = nil
		}
		ma, err := p.MinAreaBaseline()
		if err != nil {
			t.Fatal(err)
		}
		if ma.NF != res.MinArea.NF || ma.NFOA != res.MinArea.NFOA {
			t.Fatalf("source=%v: regenerated baseline NF=%d NFOA=%d, want NF=%d NFOA=%d",
				keepSource, ma.NF, ma.NFOA, res.MinArea.NF, res.MinArea.NFOA)
		}
	}
}
