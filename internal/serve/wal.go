package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"bgploop/internal/durable"
	"bgploop/internal/sweep"
)

// walStateAborted is the WAL state recorded for a submission whose WAL
// record was durably written but whose enqueue was then rejected
// (queue full). Recovery drops aborted jobs entirely — the client was
// told 429 and never saw a job id.
const walStateAborted = "aborted"

// RecoveryStats summarises what WAL replay did at startup; cmd/bgpd
// logs it and /metrics exposes the counters.
type RecoveryStats struct {
	// Replayed counts incomplete jobs (accepted but not terminal at the
	// time of the crash) that were re-enqueued; the trials each had
	// completed are in the result cache, so they are not re-simulated.
	Replayed int
	// Restored counts terminal jobs whose final state (digests, stats)
	// was reconstructed so GET /v1/runs/{id} keeps answering after a
	// restart.
	Restored int
	// DroppedRecords counts torn or corrupt WAL lines skipped on load.
	DroppedRecords int
	// WALBytes is the log's size after the startup compaction.
	WALBytes int64
}

// walPath locates the job WAL under the store directory.
func walPath(storeDir string) string {
	return filepath.Join(storeDir, "wal", "jobs.jsonl")
}

// walAppend appends one record, tracking errors and the size gauge.
// WAL failures after admission never fail the job itself — the job is
// already running and its results are still served; only crash-recovery
// fidelity degrades, which the error counter makes visible.
func (s *Server) walAppend(r durable.Record) error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Append(r)
	if err != nil {
		s.metrics.inc("bgpd_wal_errors_total", 1)
	}
	s.metrics.set("bgpd_wal_bytes", s.wal.Bytes())
	return err
}

// walRecordSubmit renders the admission record for job j. The request
// spec is embedded verbatim so recovery can rebuild the scenario.
func walRecordSubmit(j *job) (durable.Record, error) {
	spec, err := json.Marshal(j.spec)
	if err != nil {
		return durable.Record{}, err
	}
	return durable.Record{
		Type:    "job",
		Job:     j.id,
		Key:     j.key,
		Trials:  j.trials,
		Spec:    spec,
		Warning: j.warning,
	}, nil
}

// walRecordTerminal renders the terminal state record for job j; the
// caller holds j.mu.
func walRecordTerminal(j *job) durable.Record {
	r := durable.Record{
		Type:            "state",
		Job:             j.id,
		State:           string(j.state),
		Error:           j.errText,
		AggregateDigest: j.aggDig,
		ResultDigests:   j.resDigs,
	}
	if stats, err := json.Marshal(j.stats); err == nil {
		r.Stats = stats
	}
	return r
}

// recoverWAL replays the job WAL into the (not yet serving) job table:
// terminal jobs are restored as queryable records, incomplete jobs are
// re-enqueued, aborted submissions are dropped, and the log is
// compacted to the fold. Called from New before the workers start, so
// no locking is needed.
func (s *Server) recoverWAL(records []durable.Record) error {
	type fold struct {
		submit durable.Record
		last   *durable.Record // latest state record, nil if none
	}
	folds := map[string]*fold{}
	var jobOrder []string
	for i := range records {
		r := records[i]
		switch r.Type {
		case "job":
			if _, ok := folds[r.Job]; !ok {
				folds[r.Job] = &fold{submit: r}
				jobOrder = append(jobOrder, r.Job)
			}
		case "state":
			if f, ok := folds[r.Job]; ok {
				f.last = &records[i]
			}
		}
		// Keep new IDs past everything the log has ever named.
		if n, ok := jobIDNumber(r.Job); ok && n > s.nextID {
			s.nextID = n
		}
	}

	var compacted []durable.Record
	for _, id := range jobOrder {
		f := folds[id]
		state := StateQueued
		if f.last != nil {
			state = JobState(f.last.State)
		}
		if f.last != nil && f.last.State == walStateAborted {
			continue // rejected enqueue; the client never saw this id
		}
		j, err := jobFromRecord(f.submit)
		if err != nil {
			// The spec no longer parses (schema drift across versions):
			// surface the job as failed rather than silently forgetting an
			// accepted submission.
			s.metrics.inc("bgpd_wal_errors_total", 1)
			j.state = StateFailed
			j.errText = fmt.Sprintf("recovery: %v", err)
			j.log.append(Event{Type: "failed", Message: j.errText})
			j.log.close()
			s.installRecovered(j)
			compacted = append(compacted, f.submit, walRecordTerminal(j))
			continue
		}
		if state.terminal() {
			// Finished in a previous life: restore the terminal view so
			// GET /v1/runs/{id} survives the restart. The aggregate body is
			// not journaled — digests and stats are, and they are what the
			// parity tooling consumes.
			j.state = state
			j.errText = f.last.Error
			j.aggDig = f.last.AggregateDigest
			j.resDigs = f.last.ResultDigests
			if f.last.Stats != nil {
				_ = json.Unmarshal(f.last.Stats, &j.stats)
			}
			j.log.append(Event{Type: string(state), Message: "restored from WAL"})
			j.log.close()
			s.installRecovered(j)
			s.recovery.Restored++
			compacted = append(compacted, f.submit, walRecordTerminal(j))
			continue
		}
		// Accepted but not finished: re-enqueue. The job reruns through the
		// normal path; with a result cache, the trials it finished before
		// the restart come back as cache hits instead of re-executing.
		select {
		case s.queue <- j:
			j.log.append(Event{Type: "queued", Message: "re-enqueued from WAL"})
			s.installRecovered(j)
			if j.key != "" {
				s.byKey[j.key] = j.id
			}
			s.recovery.Replayed++
			compacted = append(compacted, f.submit)
		default:
			// More incomplete jobs than queue capacity. Keep the job
			// visible as failed instead of dropping an accepted submission
			// on the floor.
			s.metrics.inc("bgpd_wal_errors_total", 1)
			j.state = StateFailed
			j.errText = "recovery: queue full, job not re-enqueued"
			j.log.append(Event{Type: "failed", Message: j.errText})
			j.log.close()
			s.installRecovered(j)
			compacted = append(compacted, f.submit, walRecordTerminal(j))
		}
	}

	if err := s.wal.Compact(compacted); err != nil {
		return fmt.Errorf("serve: compact WAL: %w", err)
	}
	s.recovery.WALBytes = s.wal.Bytes()
	s.metrics.inc("bgpd_wal_jobs_replayed_total", int64(s.recovery.Replayed))
	s.metrics.inc("bgpd_wal_jobs_restored_total", int64(s.recovery.Restored))
	s.metrics.inc("bgpd_wal_records_dropped_total", int64(s.recovery.DroppedRecords))
	s.metrics.set("bgpd_wal_bytes", s.wal.Bytes())
	return nil
}

// installRecovered registers a recovered job in the table. Called only
// from recovery (single-goroutine, pre-serving).
func (s *Server) installRecovered(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// jobFromRecord rebuilds a job skeleton from its WAL submission record,
// including the replayable scenario.
func jobFromRecord(r durable.Record) (*job, error) {
	j := &job{
		id:      r.Job,
		key:     r.Key,
		trials:  r.Trials,
		warning: r.Warning,
		state:   StateQueued,
		log:     newEventLog(),
	}
	j.log.append(Event{Type: "recovered"})
	if r.Warning != "" {
		j.log.append(Event{Type: "warning", Message: r.Warning})
	}
	if err := json.Unmarshal(r.Spec, &j.spec); err != nil {
		return j, fmt.Errorf("bad spec in WAL record: %w", err)
	}
	sc, err := j.spec.Scenario()
	if err != nil {
		return j, fmt.Errorf("unbuildable scenario in WAL record: %w", err)
	}
	j.sc = sc
	return j, nil
}

// jobIDNumber parses the numeric suffix of "job-%06d" ids.
func jobIDNumber(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Recovery reports what WAL replay did when the server started.
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// recordQuarantined folds the executor's quarantine count into metrics;
// split out so recordTrialStats stays one switchboard.
func (s *Server) recordQuarantined(st sweep.Stats) {
	if st.Quarantined > 0 {
		s.metrics.inc("bgpd_cache_quarantined_total", int64(st.Quarantined))
	}
}
