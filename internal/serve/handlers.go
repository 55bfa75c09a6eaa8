package serve

import (
	"encoding/json"
	"net/http"

	"bgploop/internal/buildinfo"
	"bgploop/internal/experiment"
	"bgploop/internal/sweep"
)

// JobView is the JSON shape of GET /v1/runs/{id} and of the submit
// response. Digests use the exact functions behind `bgpsim -digest`
// (experiment.DigestResult / DigestAggregate), so a client can diff a
// served run against a local one byte for byte.
type JobView struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Trials  int      `json:"trials"`
	Warning string   `json:"warning,omitempty"`
	Error   string   `json:"error,omitempty"`
	// Deduped is set on submit responses when the submission joined an
	// already-queued/running identical job.
	Deduped bool `json:"deduped,omitempty"`

	// Stats reports how the sweep satisfied each trial (simulated,
	// cache hit, in-flight share, remote); see sweep.Stats.
	Stats *sweep.Stats `json:"stats,omitempty"`
	// Aggregate carries the metric samples; AggregateDigest and
	// ResultDigests are the canonical content digests.
	Aggregate       *experiment.Aggregate `json:"aggregate,omitempty"`
	AggregateDigest string                `json:"aggregateDigest,omitempty"`
	ResultDigests   []string              `json:"resultDigests,omitempty"`
	// Events counts retained stream events; DroppedEvents the trial
	// events evicted beyond the replay cap.
	Events        int `json:"events"`
	DroppedEvents int `json:"droppedEvents,omitempty"`
}

// view snapshots a job for serialization.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.id,
		State:   j.state,
		Trials:  j.trials,
		Warning: j.warning,
		Error:   j.errText,
	}
	if j.state.terminal() {
		st := j.stats
		v.Stats = &st
		v.Aggregate = j.agg
		v.AggregateDigest = j.aggDig
		v.ResultDigests = j.resDigs
	}
	events, dropped := j.log.snapshot()
	v.Events = len(events)
	v.DroppedEvents = dropped
	return v
}

// routes builds the HTTP surface.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Dist != nil {
		// Worker-fleet endpoints (/v1/work/*) live on the same mux as
		// the public API; the coordinator owns their handlers.
		s.cfg.Dist.Mount(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes)
	req, sc, rerr := ParseRunRequest(body, s.cfg.Limits)
	if rerr != nil {
		s.metrics.inc("bgpd_bad_requests_total", 1)
		rerr.writeTo(w)
		return
	}
	out := s.submit(req, sc)
	if out.err != nil {
		if out.err.Status == http.StatusTooManyRequests {
			// The queue is depth-bounded, not time-bounded; 1s is a
			// polite floor, not an estimate.
			w.Header().Set("Retry-After", "1")
		}
		out.err.writeTo(w)
		return
	}
	v := out.job.view()
	v.Deduped = out.deduped
	status := http.StatusAccepted
	if out.deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		views = append(views, j.view())
	}
	writeJSON(w, http.StatusOK, struct {
		Runs []JobView `json:"runs"`
	}{views})
}

// lookup resolves the {id} path value; nil means the 404 was written.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		(&RequestError{Status: http.StatusNotFound, Code: "unknown_run", Message: "no run " + id}).writeTo(w)
		return nil
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.view())
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		streamEvents(w, r, j.log)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		// Load balancers should stop sending work, but the process is
		// still healthy enough to finish what it has.
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}{state, buildinfo.Read().String()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapeGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.metrics.write(w)
}

// scrapeGauges folds scrape-time snapshots into the registry: the
// process-wide trial singleflight's dedupe counters and, when a
// coordinator is attached, the distributed-execution families.
func (s *Server) scrapeGauges() {
	fs := s.flight.Stats()
	s.metrics.set("bgpd_flight_leads_total", fs.Leads)
	s.metrics.set("bgpd_flight_shared_total", fs.Shared)
	if s.cfg.Dist == nil {
		return
	}
	c := s.cfg.Dist.Counters()
	s.metrics.set("bgpd_dist_workers_live", c.WorkersLive)
	s.metrics.set("bgpd_dist_leases_outstanding", c.LeasesOutstanding)
	s.metrics.set("bgpd_dist_leases_granted_total", c.LeasesGranted)
	s.metrics.set("bgpd_dist_leases_reassigned_total", c.LeasesReassigned)
	s.metrics.set("bgpd_dist_leases_hedged_total", c.LeasesHedged)
	s.metrics.set("bgpd_dist_leases_completed_total", c.LeasesCompleted)
	s.metrics.set("bgpd_dist_duplicate_results_total", c.DuplicateResults)
	s.metrics.set("bgpd_dist_remote_trials_total", c.RemoteTrials)
	s.metrics.set("bgpd_dist_trial_errors_total", c.TrialErrors)
}
