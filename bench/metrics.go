package main

// metricDef names one reported metric. The tables below are the program's
// half of the contract in BENCHMARK.json; bench_test.go pins that the two
// agree name for name and unit for unit.
type metricDef struct {
	Name string
	Unit string
	// Exact marks a count of simulated work: it depends on the seed alone
	// and must repeat bit for bit from run to run.
	Exact bool
}

// endToEnd are the metrics of an untraced run (-trace 0), in print order.
// failed_share is not among them: a metric must never read 0, so failures
// are reported as the failed/attempted pair of every result instead.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"op_ms_p50", "ms", false},
	{"trials_per_s", "1/s", false},
	{"sim_events_per_s", "1/s", false},
	{"allocs_per_op", "count", false},
	{"kb_per_op", "KiB", false},
}

// perLayer are the metrics of a traced run (-trace 1), grouped by layer
// (module name) in print order.
var perLayer = []metricDef{
	{"topology.generate_ms", "ms", false},
	{"topology.nodes", "count", true},
	{"topology.edges", "count", true},

	{"experiment.setup_ms", "ms", false},
	{"experiment.cachekey_us", "us", false},
	{"experiment.encode_us", "us", false},
	{"experiment.decode_us", "us", false},
	{"experiment.digest_us", "us", false},
	{"experiment.result_bytes", "count", true},

	{"des.events", "count", true},
	{"des.pending_max", "count", true},
	{"des.ns_per_event", "ns", false},
	{"des.allocs_per_event", "count", false},
	{"des.self_ms", "ms", false},

	{"netsim.msgs_sent", "count", true},
	{"netsim.msgs_delivered", "count", true},
	{"netsim.msgs_lost", "count", true},
	{"netsim.ns_per_msg", "ns", false},
	{"netsim.allocs_per_msg", "count", false},
	{"netsim.self_ms", "ms", false},

	{"routing.table_ops", "count", true},
	{"routing.ns_per_op", "ns", false},
	{"routing.allocs_per_op", "count", false},
	{"routing.path_len_mean", "count", true},
	{"routing.self_ms", "ms", false},

	{"bgp.ctrl_ms", "ms", false},
	{"bgp.updates_sent", "count", true},
	{"bgp.withdrawals_sent", "count", true},
	{"bgp.best_changes", "count", true},
	{"bgp.useful_ratio", "ratio", true},
	{"bgp.ns_per_update", "ns", false},
	{"bgp.self_ms", "ms", false},

	{"dataplane.replay_ms", "ms", false},
	{"dataplane.packets", "count", true},
	{"dataplane.hops", "count", true},
	{"dataplane.ttl_exhausted_share", "ratio", true},
	{"dataplane.ns_per_packet", "ns", false},
	{"dataplane.ns_per_hop", "ns", false},
	{"dataplane.fib_changes", "count", true},
	{"dataplane.record_ns", "ns", false},

	{"loopanalysis.find_ms", "ms", false},
	{"loopanalysis.loops", "count", true},
	{"loopanalysis.ns_per_fib_change", "ns", false},

	{"sweep.exec_us_per_trial", "us", false},
	{"sweep.cache_put_us", "us", false},
	{"sweep.cache_get_us", "us", false},
	{"sweep.journal_append_us", "us", false},
	{"sweep.flight_do_ns", "ns", false},
	{"sweep.cache_hit_ratio", "ratio", true},

	{"durable.wal_append_us", "us", false},
	{"durable.atomic_write_us", "us", false},
	{"durable.syncs_per_op", "count", true},

	{"safety.preflight_us", "us", false},

	{"serve.submit_ms", "ms", false},
	{"serve.await_ms", "ms", false},
	{"serve.view_ms", "ms", false},
	{"serve.cold_job_ms", "ms", false},
	{"serve.warm_job_ms", "ms", false},
	{"serve.overhead_ms", "ms", false},
	{"serve.jobs_done", "count", true},
	{"serve.dedupe_hits", "count", true},

	{"dist.wire_tax_ratio", "ratio", false},
	{"dist.ms_per_lease", "ms", false},
	{"dist.leases_granted", "count", false},
	{"dist.leases_reassigned", "count", true},
	{"dist.leases_hedged", "count", true},
	{"dist.remote_trials", "count", true},

	{"wire.update_roundtrip_ns", "ns", false},
	{"wire.allocs_per_update", "count", false},

	{"client.op_ms_tail", "ms", false},
	{"client.samples", "count", false},
	{"trace.overhead_share", "ratio", false},
	{"host.other_cpu_share", "ratio", false},
	{"host.pace", "ratio", false},
	{"host.peak_rss_mb", "MiB", false},
}

// value is one reported number, in the shape the result line carries.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a table, so
// a metric that was never measured is a loud error instead of a silent 0.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}
