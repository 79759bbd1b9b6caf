// Code generated by cmd/experiments; DO NOT EDIT.
// Regenerate with `make atlas`; CI gates drift via `make atlas-check`.

package atlas

var winners = map[string]Config{
	"cliffordt": {Class: "cliffordt", Strategy: "exact", Params: ``, Base: "exact", Order: "identity"},
	"generic":   {Class: "generic", Strategy: "exact", Params: ``, Base: "exact", Order: "identity"},
	"grover":    {Class: "grover", Strategy: "exact", Params: ``, Base: "exact", Order: "identity"},
	"pairs":     {Class: "pairs", Strategy: "reorder", Params: `{"order":"scored"}`, Base: "exact", Order: "scored"},
	"qaoa":      {Class: "qaoa", Strategy: "exact", Params: ``, Base: "exact", Order: "identity"},
	"qft":       {Class: "qft", Strategy: "exact", Params: ``, Base: "exact", Order: "identity"},
	"supremacy": {Class: "supremacy", Strategy: "reorder", Params: `{"order":"scored"}`, Base: "exact", Order: "scored"},
	"vqe":       {Class: "vqe", Strategy: "exact", Params: ``, Base: "exact", Order: "identity"},
}
