package repro_test

// Integration tests exercising the public facade exactly as the README and
// examples present it.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/client"
)

func TestFacadeBellState(t *testing.T) {
	c := repro.NewCircuit(2, "bell")
	c.H(1)
	c.CX(1, 0)
	res, err := repro.Run(c, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vec := res.Manager.ToVector(res.Final, 2)
	want := 1 / math.Sqrt2
	if math.Abs(real(vec[0])-want) > 1e-12 || math.Abs(real(vec[3])-want) > 1e-12 {
		t.Errorf("Bell amplitudes %v", vec)
	}
}

func TestFacadeApproximationFlow(t *testing.T) {
	c := repro.RandomCliffordTCircuit(8, 120, 4)
	cmp, err := repro.RunAndCompare(c, repro.Options{
		Strategy: &repro.MemoryDriven{Threshold: 16, RoundFidelity: 0.97},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TrueFidelity < cmp.Approx.FidelityBound-1e-6 {
		t.Errorf("true fidelity %v below bound %v", cmp.TrueFidelity, cmp.Approx.FidelityBound)
	}
}

func TestFacadeShor(t *testing.T) {
	out, err := repro.ShorFactor(15, repro.ShorRunOptions{Shots: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Factors.Success || out.Factors.Factor1*out.Factors.Factor2 != 15 {
		t.Errorf("Factor(15): %+v", out.Factors)
	}
}

func TestFacadeQASMRoundTrip(t *testing.T) {
	c := repro.GHZCircuit(4)
	src, err := repro.ExportQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := repro.ParseQASM(src, "ghz")
	if err != nil {
		t.Fatal(err)
	}
	eq, err := repro.CircuitsEquivalent(c, prog.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Equivalent {
		t.Error("QASM round trip broke equivalence")
	}
}

func TestFacadeContributionsAndApprox(t *testing.T) {
	res, err := repro.Run(repro.WStateCircuit(6), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	contribs := repro.NodeContributions(res.Manager, res.Final)
	if len(contribs) == 0 {
		t.Fatal("no contributions")
	}
	_, rep, err := repro.ApproximateToFidelity(res.Manager, res.Final, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Achieved < 0.8-1e-9 {
		t.Errorf("fidelity guarantee broken: %v", rep.Achieved)
	}
	small, rep2, err := repro.ApproximateToSize(res.Manager, res.Final, 8)
	if err != nil {
		t.Fatal(err)
	}
	if repro.CountNodes(small) > 10 || rep2.Achieved <= 0 {
		t.Errorf("size-targeted approximation: %d nodes, f=%v",
			repro.CountNodes(small), rep2.Achieved)
	}
}

func TestFacadeTable1Formatting(t *testing.T) {
	suite, err := repro.Table1("small")
	if err != nil {
		t.Fatal(err)
	}
	if suite.Name != "small" || len(suite.Shor) == 0 {
		t.Error("suite misconfigured")
	}
	rows := []repro.Table1Row{{
		Approach: "fidelity-driven", Name: "shor_15_7", Qubits: 12,
		ExactMaxDD: 43, RoundFid: 0.9, FinalFid: 1, TrueFidelity: 1,
	}}
	md := repro.FormatTable(rows)
	if !strings.Contains(md, "shor_15_7") {
		t.Error("markdown formatting broken")
	}
	csv := repro.FormatTableCSV(rows)
	if !strings.Contains(csv, "fidelity-driven") {
		t.Error("CSV formatting broken")
	}
}

func TestFacadeDOTAndRender(t *testing.T) {
	res, err := repro.Run(repro.GHZCircuit(3), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dot := repro.DOTDD(res.Final, "ghz"); !strings.Contains(dot, "digraph") {
		t.Error("DOT broken")
	}
	if r := repro.RenderDD(res.Final); !strings.Contains(r, "q2") {
		t.Error("Render broken")
	}
}

func TestFacadeGenerators(t *testing.T) {
	for name, c := range map[string]*repro.Circuit{
		"qft":    repro.QFTCircuit(5),
		"iqft":   repro.InverseQFTCircuit(5),
		"ghz":    repro.GHZCircuit(5),
		"w":      repro.WStateCircuit(5),
		"grover": repro.GroverCircuit(5, 3, 2),
		"bv":     repro.BernsteinVaziraniCircuit(5, 0b10110),
	} {
		if c.Len() == 0 {
			t.Errorf("%s: empty circuit", name)
		}
		if _, err := repro.Run(c, repro.Options{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Example_quickstart simulates a Bell state exactly and reads measurement
// probabilities off the final decision diagram.
func Example_quickstart() {
	c := repro.NewCircuit(2, "bell")
	c.H(1)
	c.CX(1, 0)
	res, err := repro.Run(c, repro.Options{})
	if err != nil {
		panic(err)
	}
	for idx := uint64(0); idx < 4; idx++ {
		fmt.Printf("P(|%02b>) = %.2f\n", idx, res.Manager.Probability(res.Final, idx, 2))
	}
	// Output:
	// P(|00>) = 0.50
	// P(|01>) = 0.00
	// P(|10>) = 0.00
	// P(|11>) = 0.50
}

// Example_fidelityDriven runs the paper's proactive strategy: plan
// ⌊log_fround(f_final)⌋ approximation rounds up front and guarantee the
// final fidelity stays above f_final.
func Example_fidelityDriven() {
	strategy := repro.NewFidelityDriven(0.75, 0.9) // f_final, f_round
	fmt.Println("planned rounds:", strategy.MaxRounds())

	c := repro.RandomCliffordTCircuit(10, 300, 1)
	cmp, err := repro.RunAndCompare(c, repro.Options{Strategy: strategy})
	if err != nil {
		panic(err)
	}
	fmt.Println("bound respects request:", cmp.Approx.FidelityBound >= 0.75-1e-9)
	fmt.Println("true fidelity above bound:", cmp.TrueFidelity >= cmp.Approx.FidelityBound-1e-9)
	// Output:
	// planned rounds: 2
	// bound respects request: true
	// true fidelity above bound: true
}

// Example_qasmRoundTrip exports a circuit to OpenQASM 2.0, parses it back,
// and checks equivalence with decision diagrams (V†·U ≟ λ·I).
func Example_qasmRoundTrip() {
	ghz := repro.GHZCircuit(4)
	src, err := repro.ExportQASM(ghz)
	if err != nil {
		panic(err)
	}
	prog, err := repro.ParseQASM(src, "ghz-again")
	if err != nil {
		panic(err)
	}
	eq, err := repro.CircuitsEquivalent(ghz, prog.Circuit)
	if err != nil {
		panic(err)
	}
	fmt.Println("round trip equivalent:", eq.Equivalent)
	// Output:
	// round trip equivalent: true
}

// ExampleNewServer embeds the simulation service in-process: submit a
// circuit, poll until done, and observe the content-addressed cache
// deduplicating a repeated submission.
func ExampleNewServer() {
	srv := repro.NewServer(repro.ServeConfig{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background())
	}()

	submit := func() repro.ServeJobStatus {
		body := strings.NewReader(`{
			"name": "bell", "qubits": 2, "seed": 11, "shots": 100,
			"gates": [{"name": "h", "target": 1},
			          {"name": "x", "target": 0, "controls": [1]}]
		}`)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var st repro.ServeJobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			panic(err)
		}
		return st
	}

	first := submit()
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
		if err != nil {
			panic(err)
		}
		json.NewDecoder(resp.Body).Decode(&first)
		resp.Body.Close()
		if first.Status != "queued" && first.Status != "running" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var res repro.ServeResult
	json.Unmarshal(first.Result, &res)
	fmt.Println("first:", first.Status, "cached:", first.Cached, "qubits:", res.NumQubits)

	second := submit()
	fmt.Println("second:", second.Status, "cached:", second.Cached)
	// Output:
	// first: done cached: false qubits: 2
	// second: done cached: true
}

func TestFacadeBatchRun(t *testing.T) {
	jobs := make([]repro.BatchJob, 6)
	for i := range jobs {
		jobs[i] = repro.BatchJob{
			Name:    "rct" + string(rune('0'+i)),
			Circuit: repro.RandomCliffordTCircuit(7, 100, int64(i)),
			NewStrategy: func() repro.Strategy {
				return &repro.MemoryDriven{Threshold: 16, RoundFidelity: 0.97}
			},
		}
	}
	res, err := repro.BatchRun(context.Background(), jobs,
		repro.BatchOptions{Workers: 3, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d jobs", res.Completed, len(jobs))
	}
	for i, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if jr.Seed != repro.BatchSeed(5, i) {
			t.Errorf("job %d seed %d, want %d", i, jr.Seed, repro.BatchSeed(5, i))
		}
		if jr.Result.FidelityBound > jr.Result.EstimatedFidelity+1e-9 {
			t.Errorf("job %d: bound %v above tracked fidelity %v",
				i, jr.Result.FidelityBound, jr.Result.EstimatedFidelity)
		}
	}
	if res.CPUTime <= 0 || res.WallTime <= 0 {
		t.Errorf("missing time accounting: cpu=%v wall=%v", res.CPUTime, res.WallTime)
	}
	jobsSeen := 0
	for _, ws := range res.PerWorker {
		jobsSeen += ws.Jobs
	}
	if jobsSeen != len(jobs) {
		t.Errorf("per-worker job counts sum to %d, want %d", jobsSeen, len(jobs))
	}
}

// halveAt is the facade test's custom strategy: one approximation round at a
// fixed gate index. Registered below, it is driven both in-process (through
// repro.WithStrategy) and over HTTP by name (through the typed client) — the
// end-to-end contract of the strategy registry.
type halveAt struct {
	At    int     `json:"at"`
	Round float64 `json:"round_fidelity"`

	fired bool
}

func (s *halveAt) Name() string { return "halve-at" }

func (s *halveAt) Init(total int, blocks []int) error {
	if s.At < 0 || s.At >= total {
		return fmt.Errorf("halve-at: gate %d outside circuit of %d gates", s.At, total)
	}
	if s.Round <= 0 || s.Round > 1 {
		return fmt.Errorf("halve-at: round fidelity %v outside (0, 1]", s.Round)
	}
	s.fired = false
	return nil
}

func (s *halveAt) AfterGate(m *repro.Manager, gateIdx, size int, state repro.VEdge) (repro.VEdge, *repro.Round, error) {
	if s.fired || gateIdx != s.At {
		return state, nil, nil
	}
	s.fired = true
	ne, rep, err := repro.ApproximateToFidelity(m, state, s.Round)
	if err != nil || rep.NoOp() {
		return state, nil, err
	}
	return ne, &repro.Round{GateIndex: gateIdx, Report: rep}, nil
}

func init() {
	if err := repro.RegisterStrategy("halve-at", func(params json.RawMessage) (repro.Strategy, error) {
		s := &halveAt{}
		if len(params) > 0 {
			if err := json.Unmarshal(params, s); err != nil {
				return nil, err
			}
		}
		return s, nil
	}); err != nil {
		panic(err)
	}
}

func TestCustomStrategyEndToEnd(t *testing.T) {
	circ := repro.RandomCliffordTCircuit(9, 120, 11)
	params := json.RawMessage(`{"at": 90, "round_fidelity": 0.9}`)

	// In-process: build from the registry, run through the facade.
	strat, err := repro.NewStrategyByName("halve-at", params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Run(circ, repro.Options{Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	if res.StrategyName != "halve-at" {
		t.Errorf("strategy name %q", res.StrategyName)
	}
	if len(res.Rounds) != 1 || res.Rounds[0].GateIndex != 90 {
		t.Fatalf("custom strategy rounds: %+v", res.Rounds)
	}

	// Over HTTP: same strategy by name, via the embedded service and the
	// typed client, streaming its round as an event.
	srv := repro.NewServer(repro.ServeConfig{Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	qasm, err := repro.ExportQASM(circ)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(hs.URL)
	job, err := cl.Submit(context.Background(), client.JobRequest{
		Name:           "halve-at-http",
		QASM:           qasm,
		Strategy:       "halve-at",
		StrategyParams: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []client.Event
	final, err := cl.Stream(context.Background(), job.ID, func(e client.Event) error {
		if e.Type == client.EventApproximation {
			streamed = append(streamed, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != client.StatusDone {
		t.Fatalf("job ended %q: %s", final.Status, final.Error)
	}
	if len(streamed) != 1 || streamed[0].GateIndex != 90 {
		t.Fatalf("streamed approximation events: %+v", streamed)
	}
	httpRes, err := cl.Result(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if httpRes.Strategy != "halve-at" || len(httpRes.Rounds) != 1 {
		t.Fatalf("HTTP result: strategy %q, %d rounds", httpRes.Strategy, len(httpRes.Rounds))
	}
	// The same circuit position approximated in both paths.
	if httpRes.Rounds[0].GateIndex != res.Rounds[0].GateIndex ||
		httpRes.Rounds[0].RemovedNodes != res.Rounds[0].Report.RemovedNodes {
		t.Errorf("in-process round %+v vs HTTP round %+v", res.Rounds[0], httpRes.Rounds[0])
	}
}

func TestFacadeSessionStepping(t *testing.T) {
	circ := repro.QFTCircuit(8)
	ref, err := repro.Run(circ, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ses, err := repro.NewSession(circ, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Seek(circ.Len() / 2); err != nil {
		t.Fatal(err)
	}
	if got := repro.CountNodes(ses.State()); got <= 0 {
		t.Errorf("mid-run state has %d nodes", got)
	}
	res, err := ses.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDDSize != ref.FinalDDSize || res.MaxDDSize != ref.MaxDDSize {
		t.Errorf("session result diverged from Run: final %d/%d max %d/%d",
			res.FinalDDSize, ref.FinalDDSize, res.MaxDDSize, ref.MaxDDSize)
	}
}

func Example_sessionObserver() {
	// Step a simulation gate by gate and watch its approximation rounds
	// arrive as events — the mid-run surface the paper's strategies run on.
	c := repro.NewCircuit(2, "bell")
	c.H(1)
	c.CX(1, 0)

	ses, err := repro.NewSession(c, repro.Options{Observer: printRounds{}})
	if err != nil {
		panic(err)
	}
	for ses.Remaining() > 0 {
		if err := ses.Step(); err != nil {
			panic(err)
		}
		fmt.Printf("after gate %d: %d nodes\n", ses.Pos()-1, repro.CountNodes(ses.State()))
	}
	res, err := ses.Finish()
	if err != nil {
		panic(err)
	}
	fmt.Printf("done: %d gates, final %d nodes\n", res.GateCount, res.FinalDDSize)
	// Output:
	// after gate 0: 2 nodes
	// after gate 1: 3 nodes
	// done: 2 gates, final 3 nodes
}

// printRounds reports approximation rounds; everything else is a no-op.
type printRounds struct{ repro.NopObserver }

func (printRounds) OnApproximation(r repro.Round) {
	fmt.Printf("round at gate %d\n", r.GateIndex)
}

func TestFacadeReplaceStrategy(t *testing.T) {
	// In-process use of the node-replacement strategy, both as a typed
	// value and by registry name with JSON params, composed under reorder.
	c := repro.RandomCliffordTCircuit(8, 120, 4)
	cmp, err := repro.RunAndCompare(c, repro.Options{
		Strategy: &repro.ReplaceDriven{NodeBudget: 16, FidelityFloor: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TrueFidelity < cmp.Approx.FidelityBound-1e-6 {
		t.Errorf("true fidelity %v below bound %v", cmp.TrueFidelity, cmp.Approx.FidelityBound)
	}
	// The floor guarantees the product of achieved round fidelities (the
	// tracked estimate); the pessimistic per-round bound may dip below it.
	if cmp.Approx.EstimatedFidelity < 0.6-1e-9 {
		t.Errorf("estimated fidelity %v below the requested floor", cmp.Approx.EstimatedFidelity)
	}
	replaced := 0
	for _, r := range cmp.Approx.Rounds {
		replaced += r.Report.ReplacedNodes
	}
	if replaced == 0 {
		t.Error("no nodes replaced at budget 16")
	}

	byName, err := repro.NewStrategyByName("replace",
		json.RawMessage(`{"node_budget":16,"kinds":["collapse"]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Run(c, repro.Options{
		Strategy: repro.NewReorder(repro.ReorderPolicy{Static: "scored"}, byName)})
	if err != nil {
		t.Fatal(err)
	}
	if res.StrategyName != "reorder(scored)+replace" {
		t.Errorf("strategy name = %q", res.StrategyName)
	}
}
