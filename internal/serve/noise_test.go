package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/gen"
)

// TestNoisyJobOverHTTP is the serve acceptance path for the density backend:
// a submission carrying noise + noise_params (and no explicit backend) runs
// on the density backend, returns purity/channel counters and samples from
// the density diagonal, and streams channel events over SSE.
func TestNoisyJobOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := JobRequest{
		Name:        "noisy-ghz",
		QASM:        ghzQASM,
		Noise:       "depolarizing",
		NoiseParams: map[string]float64{"p": 0.05},
		Shots:       256,
		Seed:        7,
	}
	st := c.submit(req, http.StatusAccepted)
	final := c.await(st.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %q: %s", final.Status, final.Error)
	}

	code, body := c.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, body)
	}
	var res ResultPayload
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Backend != "density" {
		t.Errorf("backend = %q, want density (noise defaults to the density backend)", res.Backend)
	}
	if res.Noise != "depolarizing" || res.NoiseParams["p"] != 0.05 {
		t.Errorf("noise echo = %q %v", res.Noise, res.NoiseParams)
	}
	if res.Purity <= 0 || res.Purity >= 1 {
		t.Errorf("purity = %v, want strictly inside (0,1) for a noisy run", res.Purity)
	}
	if res.ChannelApplications == 0 {
		t.Error("channel_applications = 0 on a noisy run")
	}
	total := 0
	for _, n := range res.Samples {
		total += n
	}
	if total != 256 {
		t.Errorf("samples sum to %d, want 256", total)
	}

	channels := 0
	for _, e := range c.readSSE("/v1/jobs/" + st.ID + "/events") {
		if e.Type != EventChannel {
			continue
		}
		channels++
		if e.Kind != "depolarizing" || e.Strength != 0.05 || e.Branch != -1 {
			t.Fatalf("channel event = %+v, want kind depolarizing p=0.05 branch -1", e)
		}
	}
	if channels != res.ChannelApplications {
		t.Errorf("SSE carried %d channel events, result counted %d", channels, res.ChannelApplications)
	}
}

// TestTrajectoryJobOverHTTP: an explicit statevector backend with noise runs
// one seeded quantum trajectory instead of the exact density evolution.
func TestTrajectoryJobOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := JobRequest{
		QASM:        ghzQASM,
		Backend:     "statevector",
		Noise:       "bit_flip",
		NoiseParams: map[string]float64{"p": 1, "seed": 3},
		Shots:       32,
	}
	st := c.submit(req, http.StatusAccepted)
	final := c.await(st.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %q: %s", final.Status, final.Error)
	}
	var res ResultPayload
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Backend != "statevector" {
		t.Errorf("backend = %q, want statevector", res.Backend)
	}
	// p=1 bit flips fire on every touched qubit: one jump per gate qubit.
	if res.ChannelApplications == 0 {
		t.Error("trajectory reported no quantum jumps at p=1")
	}
	if res.Purity != 0 {
		t.Errorf("purity = %v on a statevector run, want omitted (0)", res.Purity)
	}
	jumps := 0
	for _, e := range c.readSSE("/v1/jobs/" + st.ID + "/events") {
		if e.Type == EventChannel {
			jumps++
			if e.Branch < 1 {
				t.Fatalf("trajectory jump event branch = %d, want >= 1", e.Branch)
			}
		}
	}
	if jumps != res.ChannelApplications {
		t.Errorf("SSE carried %d jump events, result counted %d", jumps, res.ChannelApplications)
	}
}

// TestNoiseValidationOverHTTP: malformed noise/backend submissions are
// rejected with 400 at submit time, not as failed jobs.
func TestNoiseValidationOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	bad := []JobRequest{
		{QASM: ghzQASM, Noise: "cosmic_ray"},
		{QASM: ghzQASM, Noise: "depolarizing", NoiseParams: map[string]float64{"p": 1.5}},
		{QASM: ghzQASM, Noise: "depolarizing", NoiseParams: map[string]float64{"q": 0.1}},
		{QASM: ghzQASM, Noise: "amplitude_damping", NoiseParams: map[string]float64{"p": 0.1, "gamma": 0.2}},
		{QASM: ghzQASM, NoiseParams: map[string]float64{"p": 0.1}},
		{QASM: ghzQASM, Backend: "tensor"},
		{QASM: ghzQASM, Backend: "density", Strategy: "memory", StrategyParams: json.RawMessage(`{"threshold":16,"round_fidelity":0.97}`)},
	}
	for i, req := range bad {
		if code, body := c.do("POST", "/v1/jobs", req); code != http.StatusBadRequest {
			t.Errorf("case %d: HTTP %d (want 400): %s", i, code, body)
		}
	}
}

// TestNoiseHashCanonicalization: semantically identical noise spellings
// share a content address; distinct noise configurations do not.
func TestNoiseHashCanonicalization(t *testing.T) {
	base := inlineRequest("", gen.GHZ(4))

	hash := func(mut func(*JobRequest)) string {
		t.Helper()
		req := base
		mut(&req)
		h, err := CanonicalHash(req)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	gamma := hash(func(r *JobRequest) {
		r.Noise = "amplitude_damping"
		r.NoiseParams = map[string]float64{"gamma": 0.1}
	})
	p := hash(func(r *JobRequest) {
		r.Noise = "amplitude_damping"
		r.NoiseParams = map[string]float64{"p": 0.1}
	})
	if gamma != p {
		t.Error("gamma and p spellings of amplitude damping hash differently")
	}

	implicit := hash(func(r *JobRequest) {
		r.Noise = "depolarizing"
		r.NoiseParams = map[string]float64{"p": 0.02}
	})
	explicit := hash(func(r *JobRequest) {
		r.Backend = "density"
		r.Noise = "depolarizing"
		r.NoiseParams = map[string]float64{"p": 0.02}
	})
	if implicit != explicit {
		t.Error("implicit and explicit density backend hash differently for a noisy job")
	}

	noiseless := hash(func(r *JobRequest) {})
	if svExplicit := hash(func(r *JobRequest) { r.Backend = "statevector" }); svExplicit != noiseless {
		t.Error("explicit statevector backend changes the noiseless hash")
	}
	if implicit == noiseless {
		t.Error("noisy and noiseless submissions share a hash")
	}
	trajectory := hash(func(r *JobRequest) {
		r.Backend = "statevector"
		r.Noise = "depolarizing"
		r.NoiseParams = map[string]float64{"p": 0.02}
	})
	if trajectory == implicit {
		t.Error("trajectory and density runs of the same noise share a hash")
	}
}
