package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// Event is one entry of a job's progress stream, serialized as NDJSON
// (one JSON object per line) or as SSE data frames. Seq numbers are
// dense and start at 0, so a reconnecting client can detect gaps from
// the drop counter alone.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // queued, started, warning, trial, done, failed, canceled
	// Trial fields are set for type "trial": the trial index, its
	// terminal status (done/failed/canceled), and where the result came
	// from (executed/cache/journal/flight).
	Trial  *int   `json:"trial,omitempty"`
	Status string `json:"status,omitempty"`
	Source string `json:"source,omitempty"`
	// Message carries human-readable detail (warnings, failure text).
	Message string `json:"message,omitempty"`
	// Dropped counts earlier trial events evicted from the replay buffer
	// (set on terminal events when the cap was hit).
	Dropped int `json:"dropped,omitempty"`
}

// eventLog is a job's append-only progress log with bounded replay: all
// lifecycle events are retained, trial events are retained up to
// eventCap, and everything beyond the cap is counted in dropped. Readers
// follow the log by index under a condition variable, so a slow stream
// client never blocks the worker appending events.
type eventLog struct {
	mu      sync.Mutex
	cond    *sync.Cond
	events  []Event
	dropped int
	closed  bool
}

func newEventLog() *eventLog {
	l := &eventLog{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// append adds an event, assigning its sequence number. Trial events
// beyond the replay cap are dropped (counted); lifecycle events are
// always kept so every stream ends with a terminal event.
func (l *eventLog) append(e Event) {
	l.mu.Lock()
	if e.Type == "trial" && len(l.events) >= eventCap {
		l.dropped++
		l.mu.Unlock()
		return
	}
	e.Seq = len(l.events) + l.dropped
	l.events = append(l.events, e)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close marks the log complete (terminal event appended); followers
// drain the remaining entries and stop.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// snapshot returns the retained events and the drop count.
func (l *eventLog) snapshot() ([]Event, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out, l.dropped
}

// next blocks until an event at index i (into the retained slice)
// exists, the log closes, or the follower's stop flag is raised;
// ok=false means there is nothing further to read. The stop flag must be
// flipped under the log's lock via stop() so the predicate change and
// the broadcast are ordered.
func (l *eventLog) next(i int, stopped *bool) (Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i >= len(l.events) && !l.closed && !*stopped {
		l.cond.Wait()
	}
	if *stopped {
		return Event{}, false
	}
	if i < len(l.events) {
		return l.events[i], true
	}
	return Event{}, false
}

// stop raises a follower's stop flag and wakes blocked next calls (used
// when a stream's client disconnects, so the handler goroutine exits
// instead of waiting forever on an idle log).
func (l *eventLog) stop(stopped *bool) {
	l.mu.Lock()
	*stopped = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// streamEvents writes the job's event log to w until the log closes,
// as NDJSON by default or SSE when the client asked for
// text/event-stream. It returns when the log is drained or writing
// fails (client gone).
func streamEvents(w http.ResponseWriter, r *http.Request, log *eventLog) {
	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// sync.Cond has no channel form, so a watcher goroutine bridges the
	// request context into the follower's stop flag: on disconnect the
	// blocked next call returns and the handler exits.
	stopped := false
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-r.Context().Done():
			log.stop(&stopped)
		case <-done:
		}
	}()

	for i := 0; ; i++ {
		e, ok := log.next(i, &stopped)
		if !ok {
			return
		}
		if err := writeEvent(w, e, sse); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func writeEvent(w io.Writer, e Event, sse bool) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if sse {
		_, err = fmt.Fprintf(w, "data: %s\n\n", data)
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
