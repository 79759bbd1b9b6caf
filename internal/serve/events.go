package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
)

// Event types streamed on GET /v1/jobs/{id}/events.
const (
	// EventGate reports one applied gate and the state-DD size after it.
	EventGate = "gate"
	// EventApproximation reports an approximation round that modified the
	// state.
	EventApproximation = "approximation"
	// EventCleanup reports a mark-sweep node-pool collection.
	EventCleanup = "cleanup"
	// EventReorder reports a dynamic variable-reordering (sifting) pass.
	EventReorder = "reorder"
	// EventChannel reports a noise-channel application: every exact
	// superoperator application on the density backend, each sampled
	// non-identity Kraus branch (quantum jump) on a trajectory.
	EventChannel = "channel"
	// EventFinish summarizes the simulation the moment it ends on the
	// worker (before the job result is published).
	EventFinish = "finish"
	// EventStatus is the terminal event of every stream: the job's final
	// API status. Its arrival means no further events follow.
	EventStatus = "status"
)

// Event is one entry of a job's event stream, sourced from the simulation
// Observer. Seq increases by one per event; the per-job buffer is bounded,
// so a slow consumer may observe gaps (Dropped counts events evicted
// immediately before this one).
type Event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"`
	// GateIndex is set on gate, approximation, and cleanup events.
	GateIndex int `json:"gate_index,omitempty"`
	// Size is the state-DD node count: after the gate (gate events) or at
	// the end of the run (finish events).
	Size int `json:"size,omitempty"`
	// Round carries the approximation report on approximation events.
	Round *RoundPayload `json:"round,omitempty"`
	// Live and Freed describe cleanup events.
	Live  int `json:"live,omitempty"`
	Freed int `json:"freed,omitempty"`
	// SizeBefore, Swaps, and Order describe reorder events (Size carries
	// the node count after the pass; Order is the qubit→level map).
	SizeBefore int   `json:"size_before,omitempty"`
	Swaps      int   `json:"swaps,omitempty"`
	Order      []int `json:"order,omitempty"`
	// Qubit, Kind, Strength, and Branch describe channel events (Size
	// carries the state-DD node count after the application; Branch is -1
	// for an exact superoperator application, the sampled Kraus index for
	// a trajectory jump).
	Qubit    int     `json:"qubit,omitempty"`
	Kind     string  `json:"kind,omitempty"`
	Strength float64 `json:"strength,omitempty"`
	Branch   int     `json:"branch,omitempty"`
	// MaxSize, Rounds, and Fidelity summarize finish events.
	MaxSize  int     `json:"max_size,omitempty"`
	Rounds   int     `json:"rounds,omitempty"`
	Fidelity float64 `json:"fidelity,omitempty"`
	// Status and Error are set on the terminal status event.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Dropped counts events evicted from the bounded buffer between the
	// previous delivered event and this one (0 when the stream is gapless).
	Dropped int64 `json:"dropped,omitempty"`
}

// eventBuffer is a bounded ring of a job's events. The producer is the
// worker goroutine running the simulation (via jobObserver); consumers are
// SSE handlers, each holding its own cursor. When producers outrun the ring,
// the oldest events are overwritten and consumers see a Dropped gap — the
// buffer never blocks the simulation.
type eventBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []Event // doubles when full up to capacity, then wraps
	limit  int     // the capacity the ring grows to
	next   int64   // seq of the next event to append; ring holds [max(0,next-len), next)
	closed bool
}

// initialEventRing is the ring a job starts with: room for a short job's
// events without growing.
const initialEventRing = 16

func newEventBuffer(capacity int) *eventBuffer {
	b := &eventBuffer{ring: make([]Event, min(capacity, initialEventRing)), limit: capacity}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// put stamps the event's Seq and stores it, doubling a full ring still
// under its capacity and otherwise evicting the oldest entry. The ring
// grows only before it first wraps, so event seq sits at index seq then.
func (b *eventBuffer) put(e Event) {
	if b.next == int64(len(b.ring)) && len(b.ring) < b.limit {
		grown := make([]Event, min(2*len(b.ring), b.limit))
		copy(grown, b.ring)
		b.ring = grown
	}
	e.Seq = b.next
	b.ring[b.next%int64(len(b.ring))] = e
	b.next++
}

// append stores the event unless the stream is complete.
func (b *eventBuffer) append(e Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.put(e)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// close marks the stream complete after appending the terminal event.
func (b *eventBuffer) close(terminal Event) {
	b.mu.Lock()
	if !b.closed {
		b.put(terminal)
		b.closed = true
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// collect appends to dst every buffered event with Seq >= cursor, returning
// the new cursor, the dropped-event count (cursor fell off the ring), and
// whether the stream is complete and fully consumed. It never blocks.
func (b *eventBuffer) collect(dst []Event, cursor int64) (out []Event, nextCursor int64, dropped int64, done bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	oldest := b.next - int64(len(b.ring))
	if oldest < 0 {
		oldest = 0
	}
	if cursor < oldest {
		dropped = oldest - cursor
		cursor = oldest
	}
	for ; cursor < b.next; cursor++ {
		dst = append(dst, b.ring[cursor%int64(len(b.ring))])
	}
	return dst, cursor, dropped, b.closed
}

// wait blocks until an event with Seq >= cursor exists, the stream closes,
// or stop returns true (checked after every wake-up; pair with kick to make
// an external condition observable).
func (b *eventBuffer) wait(cursor int64, stop func() bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for cursor >= b.next && !b.closed && !stop() {
		b.cond.Wait()
	}
}

// kick wakes every waiter so it re-evaluates its stop condition.
func (b *eventBuffer) kick() { b.cond.Broadcast() }

// jobObserver adapts the simulation Observer to a job's event buffer. It
// runs on the worker goroutine; appends are mutex-bounded and never block on
// consumers.
type jobObserver struct {
	buf *eventBuffer
}

func (o jobObserver) OnGate(e core.GateEvent) {
	o.buf.append(Event{Type: EventGate, GateIndex: e.Index, Size: e.Size})
}

// roundPayload is the API form of one approximation round, in results and
// in approximation events alike.
func roundPayload(r core.Round) RoundPayload {
	return RoundPayload{
		GateIndex:     r.GateIndex,
		SizeBefore:    r.Report.SizeBefore,
		SizeAfter:     r.Report.SizeAfter,
		Achieved:      r.Report.Achieved,
		RemovedNodes:  r.Report.RemovedNodes,
		ReplacedNodes: r.Report.ReplacedNodes,
	}
}

func (o jobObserver) OnApproximation(r core.Round) {
	rp := roundPayload(r)
	o.buf.append(Event{Type: EventApproximation, GateIndex: r.GateIndex, Round: &rp})
}

func (o jobObserver) OnCleanup(e core.CleanupEvent) {
	o.buf.append(Event{Type: EventCleanup, GateIndex: e.GateIndex, Live: e.Live, Freed: e.Freed})
}

func (o jobObserver) OnReorder(e core.ReorderEvent) {
	o.buf.append(Event{
		Type:       EventReorder,
		GateIndex:  e.GateIndex,
		Size:       e.SizeAfter,
		SizeBefore: e.SizeBefore,
		Swaps:      e.Swaps,
		Order:      e.Order,
	})
}

func (o jobObserver) OnChannel(e core.ChannelEvent) {
	o.buf.append(Event{
		Type:      EventChannel,
		GateIndex: e.GateIndex,
		Qubit:     e.Qubit,
		Kind:      e.Kind,
		Strength:  e.Strength,
		Branch:    e.Branch,
		Size:      e.Size,
	})
}

func (o jobObserver) OnFinish(e core.FinishEvent) {
	ev := Event{
		Type:     EventFinish,
		Size:     e.FinalDDSize,
		MaxSize:  e.MaxDDSize,
		Rounds:   e.Rounds,
		Fidelity: e.EstimatedFidelity,
	}
	if e.Err != nil {
		ev.Error = e.Err.Error()
	}
	o.buf.append(ev)
}

// handleEvents serves GET /v1/jobs/{id}/events: a Server-Sent Events stream
// of the job's buffered simulation events followed by one terminal `status`
// event. Finished (and cached) jobs replay their retained events and close
// immediately; running jobs stream live. Reconnecting clients resume with
// the standard Last-Event-ID header (or a `from` query parameter) — events
// still in the bounded buffer are replayed, older ones are reported via the
// `dropped` field.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	js := s.job(r.PathValue("id"))
	if js == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	cursor := int64(0)
	if from := cmp.Or(r.Header.Get("Last-Event-ID"), r.URL.Query().Get("from")); from != "" {
		n, err := strconv.ParseInt(from, 10, 64)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("malformed event cursor %q", from))
			return
		}
		if r.Header.Get("Last-Event-ID") != "" {
			n++ // the header names the last event received, not the next
		}
		cursor = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()

	ctx := r.Context()
	// Wake the wait loop when the client disconnects; the request context
	// is always canceled by the time the handler returns, so this goroutine
	// cannot leak.
	go func() {
		<-ctx.Done()
		js.events.kick()
	}()
	var batch []Event
	for {
		var dropped int64
		var done bool
		batch, cursor, dropped, done = js.events.collect(batch[:0], cursor)
		if len(batch) > 0 {
			if dropped > 0 {
				batch[0].Dropped = dropped
			}
			for _, e := range batch {
				if err := writeSSE(w, e); err != nil {
					return
				}
			}
			rc.Flush()
		}
		if done && len(batch) == 0 {
			return
		}
		if done {
			continue // drain anything appended between collect and now
		}
		select {
		case <-ctx.Done():
			return
		default:
		}
		js.events.wait(cursor, func() bool {
			select {
			case <-ctx.Done():
				return true
			default:
				return false
			}
		})
		select {
		case <-ctx.Done():
			return
		default:
		}
	}
}

// writeSSE renders one event in Server-Sent Events framing.
func writeSSE(w http.ResponseWriter, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return err
}
