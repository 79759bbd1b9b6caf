package serve

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// TestReadBodySizesOnce: a body whose declared length is true reads into
// one allocation; a false, absent or capped length still reads the whole
// body, and the caller's reader error comes back as read.
func TestReadBodySizesOnce(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 1000)
	r := bytes.NewReader(body)
	if n := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		if _, err := ReadBody(r, int64(len(body)), 1<<20); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("true declared length: %v allocations, want 1", n)
	}
	big := bytes.Repeat(body, 10) // past the 64 KiB presize cap
	for _, c := range []struct {
		name            string
		body            []byte
		declared, limit int64
	}{
		{"absent", body, -1, 1 << 20},
		{"understated", body, 10, 1 << 20},
		{"overstated", body, 1 << 30, 1 << 20},
		{"limit below length", body, int64(len(body)), 100},
		{"past the cap", big, int64(len(big)), 1 << 20},
	} {
		got, err := ReadBody(iotest.HalfReader(bytes.NewReader(c.body)), c.declared, c.limit)
		if err != nil || !bytes.Equal(got, c.body) {
			t.Errorf("%s: read %d of %d bytes, err %v", c.name, len(got), len(c.body), err)
		}
	}
	boom := errors.New("boom")
	got, err := ReadBody(io.MultiReader(bytes.NewReader(body[:5]), iotest.ErrReader(boom)), 100, 1<<20)
	if !errors.Is(err, boom) || string(got) != "01234" {
		t.Errorf("reader error: got %q, %v", got, err)
	}
}
