package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestDeadlineExceededIsTyped(t *testing.T) {
	s := New()
	ctx, cancel := context.WithDeadlineCause(context.Background(), time.Now().Add(-time.Second), ErrDeadlineExceeded)
	defer cancel()
	_, err := s.Run(gen.QFT(8), Options{Context: ctx})
	if err == nil {
		t.Fatal("expired deadline accepted")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("error %v does not wrap ErrDeadlineExceeded", err)
	}
}

func TestCanceledContextAbortsRun(t *testing.T) {
	s := New()
	ctx, cancel := context.WithCancelCause(context.Background())
	boom := errors.New("boom")
	cancel(boom)
	_, err := s.Run(gen.QFT(8), Options{Context: ctx})
	if err == nil {
		t.Fatal("canceled context accepted")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error %v does not wrap the cancellation cause", err)
	}
}

func TestLiveContextDoesNotInterfere(t *testing.T) {
	s := New()
	if _, err := s.Run(gen.QFT(6), Options{Context: context.Background()}); err != nil {
		t.Fatalf("live context rejected run: %v", err)
	}
}

func TestNoDeadlineMeansNoLimit(t *testing.T) {
	s := New()
	if _, err := s.Run(gen.QFT(6), Options{}); err != nil {
		t.Fatalf("zero deadline rejected run: %v", err)
	}
}

func TestSizeHistoryMatchesGateCount(t *testing.T) {
	c := gen.GHZ(5)
	s := New()
	res, err := s.Run(c, Options{CollectSizeHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SizeHistory) != c.Len() {
		t.Fatalf("history length %d, want %d", len(res.SizeHistory), c.Len())
	}
	// GHZ sizes grow monotonically by construction of the ladder.
	for i := 1; i < len(res.SizeHistory); i++ {
		if res.SizeHistory[i] < res.SizeHistory[i-1] {
			t.Errorf("GHZ size history not monotone: %v", res.SizeHistory)
			break
		}
	}
	if res.MaxDDSize != res.SizeHistory[len(res.SizeHistory)-1] {
		t.Errorf("max %d != last history entry %d", res.MaxDDSize, res.SizeHistory[len(res.SizeHistory)-1])
	}
}
