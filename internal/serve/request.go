package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"bgploop/internal/experiment"
)

// Limits bounds what a single submission may ask of the server. Zero
// fields take the Default* constants.
type Limits struct {
	// MaxNodes caps the materialized topology size (and, pre-build, the
	// spec's size parameter, so a hostile spec cannot make the server
	// generate a huge graph just to reject it).
	MaxNodes int
	// MaxTrials caps the per-job trial count.
	MaxTrials int
	// MaxBodyBytes caps the request body size.
	MaxBodyBytes int64
}

// Default request limits.
const (
	DefaultMaxNodes     = 64
	DefaultMaxTrials    = 256
	DefaultMaxBodyBytes = 1 << 20
)

func (l Limits) withDefaults() Limits {
	if l.MaxNodes <= 0 {
		l.MaxNodes = DefaultMaxNodes
	}
	if l.MaxTrials <= 0 {
		l.MaxTrials = DefaultMaxTrials
	}
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return l
}

// RunRequest is the body of POST /v1/runs: a scenario spec — the same
// schema bgpsim -scenario reads, see experiment.ScenarioSpec — plus the
// trial count. Trials replicate the scenario with per-trial seeds
// (seed, seed+1, ...), exactly like `bgpsim -trials`.
type RunRequest struct {
	Spec   experiment.ScenarioSpec `json:"spec"`
	Trials int                     `json:"trials,omitempty"`
}

// RequestError is a structured admission failure: an HTTP status, a
// stable machine-readable code, and human-readable detail. It renders as
// {"error": {"code": ..., "message": ...}}.
type RequestError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// writeTo renders the error response.
func (e *RequestError) writeTo(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	_ = json.NewEncoder(w).Encode(struct {
		Error *RequestError `json:"error"`
	}{e})
}

func badRequest(code, format string, args ...any) *RequestError {
	return &RequestError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// ParseRunRequest decodes and validates a POST /v1/runs body under the
// given limits, returning the request and the materialized scenario.
// Every failure is a structured *RequestError — malformed JSON, unknown
// fields, forbidden topology families, oversized topologies or trial
// counts, and specs that do not materialize all map to 400s; a body
// past an http.MaxBytesReader's limit (the handler's MaxBodyBytes) is
// 413 too_large. Nothing panics (FuzzRunRequest pins that).
func ParseRunRequest(body io.Reader, limits Limits) (*RunRequest, experiment.Scenario, *RequestError) {
	limits = limits.withDefaults()

	dec := json.NewDecoder(io.LimitReader(body, limits.MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, experiment.Scenario{}, &RequestError{Status: http.StatusRequestEntityTooLarge, Code: "too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, experiment.Scenario{}, badRequest("bad_json", "request body is truncated or empty")
		}
		return nil, experiment.Scenario{}, badRequest("bad_json", "decode request: %v", err)
	}
	// A second value after the first JSON document is a client bug.
	if dec.More() {
		return nil, experiment.Scenario{}, badRequest("bad_json", "trailing data after request object")
	}

	switch {
	case req.Trials < 0:
		return nil, experiment.Scenario{}, badRequest("bad_trials", "negative trial count %d", req.Trials)
	case req.Trials == 0:
		req.Trials = 1
	case req.Trials > limits.MaxTrials:
		return nil, experiment.Scenario{}, badRequest("too_many_trials", "%d trials exceeds the limit of %d", req.Trials, limits.MaxTrials)
	}

	// The "file" family reads from the server's filesystem — never
	// acceptable from a network request.
	if req.Spec.Topology.Family == "file" {
		return nil, experiment.Scenario{}, badRequest("forbidden_family", "topology family %q is not accepted over the API", "file")
	}
	// Pre-build size guard: generated families would otherwise build the
	// oversized graph before the post-build node check rejects it.
	if req.Spec.Topology.Size > limits.MaxNodes {
		return nil, experiment.Scenario{}, badRequest("too_large", "topology size %d exceeds the limit of %d nodes", req.Spec.Topology.Size, limits.MaxNodes)
	}
	if n := len(req.Spec.Topology.Edges); n > limits.MaxNodes*limits.MaxNodes {
		return nil, experiment.Scenario{}, badRequest("too_large", "%d topology edges exceed the limit of %d", n, limits.MaxNodes*limits.MaxNodes)
	}

	s, err := req.Spec.Scenario()
	if err != nil {
		return nil, experiment.Scenario{}, badRequest("bad_scenario", "%v", err)
	}
	if n := s.Graph.NumNodes(); n > limits.MaxNodes {
		return nil, experiment.Scenario{}, badRequest("too_large", "topology has %d nodes, limit is %d", n, limits.MaxNodes)
	}
	return &req, s, nil
}
