package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// rawSubmit writes a POST /v1/jobs request to addr by hand, so the framing
// (a false Content-Length, chunking) is exactly what the case asks for.
// header is the framing header line; with halfClose the client shuts its
// write side after the body, as a sender that promised more bytes would.
func rawSubmit(t *testing.T, addr, header, body string, halfClose bool) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "POST /v1/jobs HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n" +
		"Connection: close\r\n" + header + "\r\n\r\n" + body
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	if halfClose {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// chunked frames body as one chunk and the terminating empty one.
func chunked(body string) string {
	return fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(body), body)
}

// TestSubmitBodyFramingOnBothTiers: simd and simd-router read a submission
// once into a buffer sized from its Content-Length. A chunked body (no
// length), an understated length, an overstated one and a body past
// MaxBodyBytes, declared or chunked, each get the status and error
// envelope an unsized read gave them.
func TestSubmitBodyFramingOnBothTiers(t *testing.T) {
	const limit = 1024
	srv := serve.New(serve.Config{Workers: 1, MaxBodyBytes: limit})
	simd := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		simd.Close()
		srv.Shutdown(nil)
	})
	tc := startCluster(t, 1, Config{MaxBodyBytes: limit})

	valid := `{"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n","shots":4}`
	big := `{"name":"` + strings.Repeat("x", limit) + `","qasm":"OPENQASM 2.0;\nqreg q[1];\n"}`
	for _, tier := range []struct {
		name, addr, read string
	}{
		{"simd", simd.Listener.Addr().String(), "decoding submission"},
		{"router", tc.routerHS.Listener.Addr().String(), "reading submission"},
	} {
		for _, c := range []struct {
			name, header, body string
			halfClose          bool
			code               int
			envelope           string // "" for a 202 status body
		}{
			{"chunked", "Transfer-Encoding: chunked", chunked(valid), false, http.StatusAccepted, ""},
			{"understated", "Content-Length: 10", valid, false, http.StatusBadRequest,
				`{"error":"decoding submission: unexpected EOF"}`},
			{"overstated", fmt.Sprintf("Content-Length: %d", len(valid)+50), valid, true, http.StatusBadRequest,
				`{"error":"` + tier.read + `: unexpected EOF"}`},
			{"overstated past the limit", "Content-Length: 1000000", valid, true, http.StatusBadRequest,
				`{"error":"` + tier.read + `: unexpected EOF"}`},
			{"declared over the limit", fmt.Sprintf("Content-Length: %d", len(big)), big, false, http.StatusBadRequest,
				`{"error":"` + tier.read + `: http: request body too large"}`},
			{"chunked over the limit", "Transfer-Encoding: chunked", chunked(big), false, http.StatusBadRequest,
				`{"error":"` + tier.read + `: http: request body too large"}`},
		} {
			code, body := rawSubmit(t, tier.addr, c.header, c.body, c.halfClose)
			switch {
			case code != c.code:
				t.Errorf("%s, %s: HTTP %d, want %d: %s", tier.name, c.name, code, c.code, body)
			case c.envelope == "" && !strings.Contains(body, `"status":"queued"`) && !strings.Contains(body, `"status":"done"`):
				t.Errorf("%s, %s: accepted with body %s", tier.name, c.name, body)
			case c.envelope != "" && body != c.envelope+"\n":
				t.Errorf("%s, %s: body %q, want %q", tier.name, c.name, body, c.envelope+"\n")
			}
		}
	}
}
