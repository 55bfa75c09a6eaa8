package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"bgploop/internal/experiment"
	"bgploop/internal/metrics"
)

// runTraced is the attribution run. It is separate from the end-to-end
// run so that the end-to-end numbers pay for no tracing: one set-up, laps
// untraced reference laps and as many traced laps, whose median against
// the reference is the tracing overhead, and then the layer probes on the
// workload's own payload.
func runTraced(cfg runConfig, w *workload, p *payload, scratch string, laps int, res *runResult) (err error) {
	inst, err := setUp(w, p, filepath.Join(scratch, "setup"))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	// Untraced and traced laps alternate, so that neither side is the one
	// that always runs first on a cold process or during a slow stretch
	// of the host.
	var (
		ref, sec   = &section{cpuFrom: readCPU()}, &section{}
		tr         = newTracer()
		tracedLaps []int
	)
	for ; laps > 0; laps-- {
		one, err := measure(inst, w.ring, 1, nil, ref.nextLap, ref.nextOp)
		if err != nil {
			return err
		}
		ref.merge(one)
		tracedLaps = append(tracedLaps, ref.nextLap)
		if one, err = measure(inst, w.ring, 1, tr, ref.nextLap, ref.nextOp); err != nil {
			return err
		}
		sec.merge(one)
		ref.nextLap, ref.nextOp = sec.nextLap, sec.nextOp
	}
	sec.cpuTo = readCPU()
	res.Attempted = ref.attempted + sec.attempted
	res.Failed = ref.failed + sec.failed
	res.detail.Failures = append(ref.failures, sec.failures...)
	res.detail.Laps, res.detail.Ops = sec.laps, len(sec.durs)
	res.detail.RingDigest = ringDigest(sec.lapDigests)
	if got, want := ringDigest(ref.lapDigests), res.detail.RingDigest; got != want {
		res.Failed++
		res.detail.Failures = append(res.detail.Failures, fmt.Sprintf("untraced ring digest %s != traced %s", got, want))
	}
	if err := checkPinned(cfg, sec.lapDigests, res); err != nil {
		return err
	}
	if len(ref.durs) == 0 || len(sec.durs) == 0 {
		return fmt.Errorf("no op succeeded: %v", res.detail.Failures)
	}
	fail := func(format string, args ...any) {
		res.Failed++
		res.detail.Failures = append(res.detail.Failures, fmt.Sprintf(format, args...))
	}

	m := metricSet{}
	refP50, tracedP50 := medianDur(ref.durs), medianDur(sec.durs)
	tailD, tailPct := tail(ref.durs)
	m["client.op_ms_tail"] = ms(tailD)
	m["client.samples"] = float64(len(ref.durs))
	res.detail.TailPct = tailPct
	m["trace.overhead_share"] = float64(tracedP50)/float64(refP50) - 1
	other := otherCPUShare(ref.cpuFrom, sec.cpuTo)
	m["host.other_cpu_share"] = other
	res.detail.OtherCPU = other
	m["host.pace"] = median(append(append([]float64(nil), ref.paces...), sec.paces...))
	res.detail.HostPace = m["host.pace"]

	// The kernel layers: the traced laps themselves for a trial workload,
	// one traced lap of the payload's own trials for the others.
	var (
		first  kernelProfile // the first traced lap: the exact counts
		all    kernelProfile // every traced lap: the times
		sample = sec.sample
	)
	if t, ok := inst.(*trialInstance); ok {
		first = t.profiles[0]
		for i := range t.profiles {
			if got, want := t.profiles[i].counts, first.counts; got != want {
				fail("traced lap %d counts %+v differ from the first lap's %+v", i, got, want)
			}
			all.add(&t.profiles[i])
		}
	} else {
		trials := w.probeTrials
		if cfg.smoke {
			trials = 1
		}
		for j := 0; j < trials; j++ {
			gen := func() (experiment.Scenario, error) { return experiment.Repeat(p.probe)(j) }
			if sample, err = tracedTrial(gen, false, tr, sec.nextOp+j, -1, &first); err != nil {
				return fmt.Errorf("kernel probe trial %d: %w", j, err)
			}
		}
		all = first
	}
	kernelMetrics(&first, &all, m)

	// The persistence, codec and admission layers, on the payload.
	encoded, err := experiment.EncodeResult(sample)
	if err != nil {
		return err
	}
	spec, err := experiment.NewScenarioSpec(p.probe)
	if err != nil {
		return err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	if err := probePersistence(filepath.Join(scratch, "probe"), sample, encoded, specJSON, m); err != nil {
		return fmt.Errorf("persistence probe: %w", err)
	}
	if err := probePreflight(p.probe, m); err != nil {
		return fmt.Errorf("preflight probe: %w", err)
	}

	// The service layers, from the workload's own ops: a workload that
	// never reaches a layer reports 0 for it.
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "serve.") || strings.HasPrefix(d.Name, "dist.") {
			m[d.Name] = 0
		}
	}
	m["durable.syncs_per_op"] = 0
	switch in := inst.(type) {
	case *servedInstance:
		// Stopping the daemon scrapes the last lap's counters.
		if err := in.stop(); err != nil {
			return err
		}
		servedMetrics(in, p, tracedLaps, m, fail)
	case *distInstance:
		in.snapshot()
		distMetrics(in, p, ref, sec, tracedLaps, m, fail)
	}
	// The share of the workload's own cache probes that hit; a workload
	// whose ops probe no cache has none.
	m["sweep.cache_hit_ratio"] = 0
	if c, ok := inst.(interface{ cacheHitRatio() float64 }); ok {
		m["sweep.cache_hit_ratio"] = c.cacheHitRatio()
	}

	m["host.peak_rss_mb"] = peakRSSMiB()
	// The attribution sets spans (medians and means over every lap) against
	// the untraced median over every lap too: like with like.
	res.detail.Attribution = attribution(w, &all, m, medianDur(ref.durs))
	if !cfg.smoke {
		if res.detail.SpanFile, err = tr.write(filepath.Join(cfg.root, "out"), w.name, cfg.seed, res.detail.Env); err != nil {
			return err
		}
	}
	var missing []string
	res.Metrics, missing = m.render(perLayer)
	if len(missing) > 0 {
		return fmt.Errorf("metrics never measured: %v", missing)
	}
	return nil
}

// kernelMetrics renders the kernel layers: counts from the first traced
// lap (they repeat exactly), times as means per trial over every traced
// lap.
func kernelMetrics(first, all *kernelProfile, m metricSet) {
	n := float64(all.Trials)
	perTrial := func(d time.Duration) float64 { return ms(d) / n }

	m["topology.generate_ms"] = perTrial(all.Generate)
	m["topology.nodes"] = float64(first.Nodes) / float64(first.Trials)
	m["topology.edges"] = float64(first.Edges) / float64(first.Trials)

	m["experiment.setup_ms"] = perTrial(all.Setup)
	m["experiment.cachekey_us"] = us(all.CacheKey) / n
	m["experiment.encode_us"] = us(all.Encode) / n
	m["experiment.decode_us"] = us(all.Decode) / n
	m["experiment.digest_us"] = us(all.Digest) / n
	m["experiment.result_bytes"] = float64(first.ResultBytes)

	m["des.events"] = float64(first.Events)
	m["des.pending_max"] = float64(first.PendingMax)
	m["des.ns_per_event"] = metrics.Ratio(float64(all.DesSelf), float64(all.Events))
	m["des.allocs_per_event"] = metrics.Ratio(float64(all.DesAllocs), float64(all.Events))
	m["des.self_ms"] = perTrial(all.DesSelf)

	m["netsim.msgs_sent"] = float64(first.Sent)
	m["netsim.msgs_delivered"] = float64(first.Delivered)
	m["netsim.msgs_lost"] = float64(first.Lost)
	m["netsim.ns_per_msg"] = metrics.Ratio(float64(all.NetsimSelf()), float64(all.Sent))
	m["netsim.allocs_per_msg"] = metrics.Ratio(float64(all.NetsimAllocs), float64(all.Sent))
	m["netsim.self_ms"] = perTrial(all.NetsimSelf())

	m["routing.table_ops"] = float64(first.TableOps)
	m["routing.ns_per_op"] = metrics.Ratio(float64(all.RoutingSelf), float64(all.TableOps))
	m["routing.allocs_per_op"] = metrics.Ratio(float64(all.RoutingAllocs), float64(all.TableOps))
	m["routing.path_len_mean"] = metrics.Ratio(float64(first.PathLenSum), float64(first.PathsCount))
	m["routing.self_ms"] = perTrial(all.RoutingSelf)

	m["bgp.ctrl_ms"] = perTrial(all.Ctrl())
	m["bgp.updates_sent"] = float64(first.Updates)
	m["bgp.withdrawals_sent"] = float64(first.Withdrawals)
	m["bgp.best_changes"] = float64(first.BestChanges)
	m["bgp.useful_ratio"] = metrics.Ratio(float64(first.BestChanges), float64(first.Received))
	m["bgp.ns_per_update"] = metrics.Ratio(float64(all.BGPSelf()), float64(all.Received))
	m["bgp.self_ms"] = perTrial(all.BGPSelf())

	m["dataplane.replay_ms"] = perTrial(all.Replay)
	m["dataplane.packets"] = float64(first.Packets)
	m["dataplane.hops"] = float64(first.Hops)
	m["dataplane.ttl_exhausted_share"] = metrics.Ratio(float64(first.TTLExhausted), float64(first.Packets))
	m["dataplane.ns_per_packet"] = metrics.Ratio(float64(all.Replay), float64(all.Packets))
	m["dataplane.ns_per_hop"] = metrics.Ratio(float64(all.Replay), float64(all.Hops))
	m["dataplane.fib_changes"] = float64(first.FIBChanges)
	m["dataplane.record_ns"] = metrics.Ratio(float64(all.RecordTime), float64(all.Records))

	m["loopanalysis.find_ms"] = perTrial(all.Find)
	m["loopanalysis.loops"] = float64(first.Loops)
	m["loopanalysis.ns_per_fib_change"] = metrics.Ratio(float64(all.Find), float64(all.FIBChanges))

	m["wire.update_roundtrip_ns"] = metrics.Ratio(float64(all.Wire), float64(all.WireOps))
	m["wire.allocs_per_update"] = metrics.Ratio(float64(all.WireAllocs), float64(all.WireOps))
}

func medianOf(ts []jobTiming, f func(jobTiming) time.Duration) time.Duration {
	ds := make([]time.Duration, len(ts))
	for i, t := range ts {
		ds[i] = f(t)
	}
	return medianDur(ds)
}

// servedMetrics renders the serve layer from the served workload's own
// traced pairs.
func servedMetrics(in *servedInstance, p *payload, tracedLaps []int, m metricSet, fail func(string, ...any)) {
	both := append(append([]jobTiming(nil), in.cold...), in.warm...)
	m["serve.submit_ms"] = ms(medianOf(both, func(t jobTiming) time.Duration { return t.submit }))
	m["serve.await_ms"] = ms(medianOf(both, func(t jobTiming) time.Duration { return t.await }))
	m["serve.view_ms"] = ms(medianOf(both, func(t jobTiming) time.Duration { return t.view }))
	cold := medianOf(in.cold, jobTiming.total)
	m["serve.cold_job_ms"] = ms(cold)
	m["serve.warm_job_ms"] = ms(medianOf(in.warm, jobTiming.total))
	m["serve.overhead_ms"] = ms(cold - medianDur(p.oracleTime))
	// One counter snapshot per measured lap; the traced laps' must agree.
	first := in.counters[tracedLaps[0]]
	m["serve.jobs_done"] = float64(first["bgpd_jobs_completed_total"])
	m["serve.dedupe_hits"] = float64(first["bgpd_trials_deduped_total"])
	// The fsyncs the daemon issued per job pair, on the in-memory
	// filesystem that does not charge for them.
	m["durable.syncs_per_op"] = metrics.Ratio(float64(first["fsyncs"]), float64(len(p.bodies)))
	for _, lap := range tracedLaps {
		c := in.counters[lap]
		for _, name := range []string{"bgpd_jobs_completed_total", "bgpd_trials_deduped_total", "bgpd_trials_executed_total", "fsyncs"} {
			if c[name] != first[name] {
				fail("lap %d: %s = %d, lap %d had %d", lap, name, c[name], tracedLaps[0], first[name])
			}
		}
	}
}

// distMetrics renders the dist layer from the dist workload's own laps:
// counts are the first traced lap's, the tax is the untraced median over
// the local cold sweep of the same ring.
func distMetrics(in *distInstance, p *payload, ref, sec *section, tracedLaps []int, m metricSet, fail func(string, ...any)) {
	// snaps[l] is the coordinator's accounting at the start of lap l; the
	// harness took one more after the last lap.
	lap := func(l int) distCounters { return in.snaps[l+1].sub(in.snaps[l]) }
	first := lap(tracedLaps[0])
	var granted int64
	for _, l := range tracedLaps {
		got := lap(l)
		granted += got.granted
		// Leases granted depend on how many trials were pending when the
		// worker polled; only the trials themselves are exact.
		if got.remote != first.remote {
			fail("lap %d: %d remote trials, lap %d had %d", l, got.remote, tracedLaps[0], first.remote)
		}
	}
	// Both sides over every sample: the oracle sweeps ran once each.
	m["dist.wire_tax_ratio"] = metrics.Ratio(float64(medianDur(ref.durs)), float64(medianDur(p.oracleTime)))
	var tracedWall time.Duration
	for _, d := range sec.durs {
		tracedWall += d
	}
	m["dist.ms_per_lease"] = metrics.Ratio(ms(tracedWall), float64(granted))
	m["dist.leases_granted"] = float64(first.granted)
	m["dist.leases_reassigned"] = float64(first.reassigned)
	m["dist.leases_hedged"] = float64(first.hedged)
	m["dist.remote_trials"] = float64(first.remote)
}

// attribution builds a workload's table: each layer's self time per op and
// its share of a stated base. For the trial workloads the base is the
// traced trial span; for the others it is the untraced op median over
// every lap of the same run, and the rows are what the probes and
// client-side spans can see from outside.
func attribution(w *workload, all *kernelProfile, m metricSet, refMedian time.Duration) []attrRow {
	var rows []attrRow
	add := func(layer string, v, base float64, of string) {
		rows = append(rows, attrRow{Layer: layer, Ms: v, Share: metrics.Ratio(v, base), Of: of})
	}
	switch w.name {
	case "inet110-tdown", "clique10-mrai0", "inet1000-tlong":
		n := float64(all.Trials)
		base := ms(all.Trial) / n
		const of = "traced trial span"
		add("topology", m["topology.generate_ms"], base, of)
		add("experiment (setup)", m["experiment.setup_ms"], base, of)
		add("des", m["des.self_ms"], base, of)
		add("netsim", m["netsim.self_ms"], base, of)
		add("routing", m["routing.self_ms"], base, of)
		add("bgp (residual, computed)", m["bgp.self_ms"], base, of)
		add("dataplane", m["dataplane.replay_ms"]+ms(all.RecordTime)/n, base, of)
		add("loopanalysis", m["loopanalysis.find_ms"], base, of)
		add("experiment (encode+digest)", (m["experiment.encode_us"]+m["experiment.digest_us"])/1000, base, of)
	case "sweep8-cold", "dist-w1":
		base := ms(refMedian)
		const of = "untraced op median, every lap"
		// Unit costs times the trials of an op, over the workers that
		// share them: what the layer adds to the op's wall time.
		persist := sweepTrials * m["sweep.exec_us_per_trial"] / 1000 / sweepWorkers
		add("sweep (executor+encode+put, 8 trials on 2 workers)", persist, base, of)
		add("simulation and the rest (residual, computed)", base-persist, base, of)
		if w.name == "dist-w1" {
			add("dist (tax over the local cold sweep)", base-metrics.Ratio(base, m["dist.wire_tax_ratio"]), base, of)
		}
	case "sweep8-warm":
		base := ms(refMedian)
		const of = "untraced op median, every lap"
		const perOp = float64(sweepTrials) / sweepWorkers / 1000 // us per trial -> ms per op
		add("experiment (cache key, 8 trials on 2 workers)", perOp*m["experiment.cachekey_us"], base, of)
		add("sweep (cache get, 8 trials on 2 workers)", perOp*m["sweep.cache_get_us"], base, of)
		add("experiment (decode, 8 trials on 2 workers)", perOp*m["experiment.decode_us"], base, of)
	case "served":
		base := ms(refMedian)
		const of = "untraced op median, every lap"
		add("serve cold job", m["serve.cold_job_ms"], base, of)
		add("serve warm job", m["serve.warm_job_ms"], base, of)
		add("safety (preflight, both jobs)", 2*m["safety.preflight_us"]/1000, base, of)
		// Not in the op: the daemon runs on memFS. What its fsyncs would
		// add on this host's disk, at the price of one fsynced WAL append.
		add("disk, not paid (fsyncs x wal append, computed)", m["durable.syncs_per_op"]*m["durable.wal_append_us"]/1000, base, of)
	}
	return rows
}
