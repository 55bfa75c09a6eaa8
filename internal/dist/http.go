package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// maxWorkBody bounds a /v1/work request body. Result reports carry
// encoded trial results, so the bound is generous; it exists to stop a
// runaway client, not to ration honest workers.
const maxWorkBody = 8 << 20

// Mount registers the coordinator's worker-facing endpoints on mux:
//
//	POST /v1/work/register    -> RegisterResponse
//	POST /v1/work/lease       -> LeaseResponse
//	POST /v1/work/result      -> ReportResponse
//	POST /v1/work/deregister  -> 204
//
// Errors render as {"error":{"code","message"}}, the same shape as the
// public /v1/runs API. A worker the coordinator does not know (it
// restarted, or the worker drained) gets 409 worker_unknown and must
// re-register.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/work/register", c.handleRegister)
	mux.HandleFunc("/v1/work/lease", c.handleLease)
	mux.HandleFunc("/v1/work/result", c.handleResult)
	mux.HandleFunc("/v1/work/deregister", c.handleDeregister)
}

// workError is the /v1/work error body.
type workError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeWorkError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error workError `json:"error"`
	}{workError{Code: code, Message: message}})
}

func writeWorkJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeWork strictly decodes one JSON body into v: unknown fields,
// trailing data, and truncation are client errors; a body past
// maxWorkBody is 413 too_large, told apart from malformed JSON.
func decodeWork(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeWorkError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWorkBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeWorkError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeWorkError(w, http.StatusBadRequest, "bad_json", "decode request: "+err.Error())
		return false
	}
	if dec.More() {
		writeWorkError(w, http.StatusBadRequest, "bad_json", "trailing data after request object")
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeWork(w, r, &req) {
		return
	}
	writeWorkJSON(w, RegisterResponse{Worker: c.register(req.Name)})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeWork(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeWorkError(w, http.StatusBadRequest, "bad_worker", "empty worker id")
		return
	}
	l, hedged, ok := c.acquire(req.Worker)
	if !ok {
		writeWorkError(w, http.StatusConflict, "worker_unknown", "worker is not registered; register again")
		return
	}
	writeWorkJSON(w, LeaseResponse{Lease: l, Hedged: hedged, Idle: l == nil})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var rep ResultReport
	if !decodeWork(w, r, &rep) {
		return
	}
	if rep.Worker == "" || rep.Sweep == "" || rep.Lease == "" {
		writeWorkError(w, http.StatusBadRequest, "bad_report", "worker, sweep, and lease are required")
		return
	}
	resp, err := c.report(&rep)
	if err != nil {
		if errors.Is(err, errUnregistered) {
			writeWorkError(w, http.StatusConflict, "worker_unknown", "worker is not registered; register again")
			return
		}
		writeWorkError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeWorkJSON(w, resp)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req DeregisterRequest
	if !decodeWork(w, r, &req) {
		return
	}
	c.deregister(req.Worker)
	w.WriteHeader(http.StatusNoContent)
}
