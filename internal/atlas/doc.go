// Package atlas holds the committed approximability-atlas winner table:
// for every workload class (see gen.Classify) the strategy configuration
// that won the benchtab.SweepAtlas grid — smallest peak DD size at
// fidelity ≥ benchtab.AtlasFidelityFloor. The table is generated into
// winners_gen.go by cmd/experiments (`make atlas`), committed alongside
// docs/ATLAS.md, and kept fresh by the `make atlas-check` CI gate; serve's
// strategy=auto resolves submissions through Winner.
package atlas
