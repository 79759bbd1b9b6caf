package atlas

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestWinnersCoverEveryGeneratorClass(t *testing.T) {
	for _, class := range []string{
		gen.ClassQFT, gen.ClassGrover, gen.ClassSupremacy, gen.ClassPairs,
		gen.ClassQAOA, gen.ClassVQE, gen.ClassCliffordT, Generic,
	} {
		if _, ok := winners[class]; !ok {
			t.Errorf("no committed winner for class %q", class)
		}
	}
}

func TestResolveFallsBackToGeneric(t *testing.T) {
	want, ok := winners[Generic]
	if !ok {
		t.Fatal("generated table is missing the generic entry")
	}
	if got := Resolve("no-such-class"); got != want {
		t.Errorf("Resolve(unknown) = %+v, want generic %+v", got, want)
	}
	if got := Resolve("qaoa"); got.Class != "qaoa" {
		t.Errorf("Resolve(qaoa) returned class %q", got.Class)
	}
}

// TestWinnersInstantiate builds every committed configuration through the
// strategy registry — the same call serve's compile path makes — so a stale
// or hand-mangled winners_gen.go fails here rather than at submit time.
func TestWinnersInstantiate(t *testing.T) {
	for class := range winners {
		cfg := Resolve(class)
		if cfg.Class != class {
			t.Errorf("%s: entry carries class %q", class, cfg.Class)
		}
		if cfg.Strategy == "" || cfg.Base == "" || cfg.Order == "" {
			t.Errorf("%s: incomplete config %+v", class, cfg)
			continue
		}
		s, err := core.NewStrategyByName(cfg.Strategy, json.RawMessage(cfg.Params))
		if err != nil {
			t.Errorf("%s: registry rejected committed winner (%s, %s): %v",
				class, cfg.Strategy, cfg.Params, err)
			continue
		}
		if s == nil && cfg.Strategy != "exact" {
			t.Errorf("%s: registry returned nil strategy for %q", class, cfg.Strategy)
		}
	}
}
