package sim

import (
	"testing"

	"repro/internal/gen"
)

// TestWeightTableOutOfRange pins the numeric-health counter on the known
// canary: exact Grover on 10 qubits with marked element 90 looks up weights
// whose grid cell overflows int64, marked element 91 never does.
func TestWeightTableOutOfRange(t *testing.T) {
	if testing.Short() {
		t.Skip("exact grover:10:90 takes about 2 s")
	}
	for _, tc := range []struct {
		spec string
		bad  bool
	}{{"grover:10:90", true}, {"grover:10:91", false}} {
		c, err := gen.FromSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		t.Logf("%s: %d of %d lookups out of range", tc.spec, res.WeightTable.OutOfRange, res.WeightTable.Lookups)
		if got := res.WeightTable.OutOfRange; (got > 0) != tc.bad {
			t.Errorf("%s: WeightTable.OutOfRange = %d, want > 0: %v", tc.spec, got, tc.bad)
		}
	}
}
