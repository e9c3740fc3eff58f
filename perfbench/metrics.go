package main

// metricSpec names one reported number. basis says what kind of number it
// is: host time, host memory, a host-side count, or a count of simulated
// work. Simulated statistics (capture rates, drops, CPU shares of the
// modelled machines) are never a metric; the correctness gate checks them.
type metricSpec struct {
	name, unit, better, basis string
}

// endToEnd are the numbers a user of the simulator sees, one value per
// workload run, each the median over the run's untraced passes. They are
// the "end_to_end" metrics of BENCHMARK.json.
var endToEnd = []metricSpec{
	{"sim_pkts_per_s", "pkt/s", "higher", "simulated packets offered per host wall second"},
	{"cells_per_s", "cells/s", "higher", "cells completed per host wall second"},
	{"cpu_s", "s", "lower", "host CPU (user+sys) of one pass"},
	{"allocs_per_pkt", "objects/pkt", "lower", "host heap objects per simulated packet"},
	{"alloc_bytes_per_pkt", "B/pkt", "lower", "host heap bytes per simulated packet"},
	{"max_rss_mb", "MiB", "lower", "host peak resident memory"},
	{"setup_s", "s", "lower", "host time before a pass starts"},
}

// reportOnly are end-to-end numbers that are printed in the report but not
// in the JSON result: fail_frac is 0 whenever the gate passes (its counts
// are the result's "failed" and "attempted"), and the campaign-only
// metrics do not exist on the sweeps. The campaign-only ones are also
// per-layer metrics, so the traced run reports them.
var reportOnly = []metricSpec{
	{"fail_frac", "ratio", "lower", "failed checks ÷ checks attempted"},
	{"event_lag_ms_p50", "ms", "lower", "host time from cell event publish to SSE receipt (campaign only)"},
	{"event_lag_ms_p99", "ms", "lower", "as above, 99th percentile (campaign only)"},
	{"resume_s", "s", "lower", "host time to resume the campaign from its journal and render it (campaign only)"},
}

// perLayer are the traced run's numbers, by module. They are the
// "per_layer" metrics of BENCHMARK.json. A layer the workload does not use
// reports 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"pktgen.feed_ms", "ms", "lower", "host time cells spent in FeedCache.Get"},
		{"pktgen.ns_per_pkt", "ns/pkt", "lower", "host time to record one train packet"},
		{"pktgen.allocs_per_pkt", "objects/pkt", "lower", "host heap objects per recorded packet"},
		{"pktgen.trains", "count", "lower", "trains recorded (feed-cache misses)"},
		{"core.feed_hit_frac", "ratio", "higher", "feed-cache hits ÷ Gets"},
		{"core.aggregate_ms", "ms", "lower", "host time of enumeration and aggregation"},
		{"core.render_ms", "ms", "lower", "host time of table rendering"},
		{"sim.events", "count", "lower", "simulated scheduler events"},
		{"sim.events_per_pkt", "events/pkt", "lower", "simulated events per simulated packet"},
	}
	for _, p := range paths {
		m = append(m,
			metricSpec{"capture." + p + ".ns_per_pkt", "ns/pkt", "lower", "host time per simulated packet"},
			metricSpec{"capture." + p + ".ns_per_event", "ns/event", "lower", "host time per simulated event"},
			metricSpec{"capture." + p + ".events_per_pkt", "events/pkt", "lower", "simulated events per simulated packet"},
			metricSpec{"capture." + p + ".allocs_per_pkt", "objects/pkt", "lower", "host heap objects per simulated packet"},
			metricSpec{"capture." + p + ".bytes_per_pkt", "B/pkt", "lower", "host heap bytes per simulated packet"},
		)
	}
	return append(m,
		metricSpec{"bpf.ns_per_run", "ns/run", "lower", "host time per filter run"},
		metricSpec{"bpf.instr_per_run", "instr/run", "lower", "filter instructions retired per run"},
		metricSpec{"bpf.accept_frac", "ratio", "higher", "accepted ÷ runs"},
		metricSpec{"journal.append_ms_p50", "ms", "lower", "host time of one journal record (append+fsync)"},
		metricSpec{"journal.append_ms_p99", "ms", "lower", "as above, 99th percentile"},
		metricSpec{"journal.appends", "count", "lower", "journal records written"},
		metricSpec{"journal.bytes_per_cell", "B/cell", "lower", "journal file bytes per cell"},
		metricSpec{"journal.retries", "count", "lower", "append repairs and retries"},
		metricSpec{"journal.replay_ms", "ms", "lower", "host time to reopen and replay the journal"},
		metricSpec{"journal.lookup_us_p50", "us", "lower", "host time of one journal lookup"},
		metricSpec{"monitor.publish_us_p50", "us", "lower", "host time of one hub publish"},
		metricSpec{"monitor.publish_us_p99", "us", "lower", "as above, 99th percentile"},
		metricSpec{"monitor.events", "count", "lower", "events published on the hub"},
		metricSpec{"monitor.dropped", "count", "lower", "events dropped by subscribers"},
		metricSpec{"dispatch.lease_ms_p50", "ms", "lower", "host time of one lease round trip"},
		metricSpec{"dispatch.lease_ms_p99", "ms", "lower", "as above, 99th percentile"},
		metricSpec{"dispatch.complete_ms_p50", "ms", "lower", "host time of one completion round trip"},
		metricSpec{"dispatch.complete_ms_p99", "ms", "lower", "as above, 99th percentile"},
		metricSpec{"dispatch.leases", "count", "lower", "leases granted"},
		metricSpec{"dispatch.empty_leases", "count", "lower", "lease calls answered with nothing to lease"},
		metricSpec{"dispatch.cells_per_lease", "cells/lease", "higher", "cells completed ÷ leases granted"},
		metricSpec{"dispatch.expired", "count", "lower", "leases expired"},
		metricSpec{"dispatch.local_cells", "count", "lower", "cells the coordinator ran itself"},
		metricSpec{"runtime.gc_cycles", "count", "lower", "Go GC cycles in one pass"},
		metricSpec{"runtime.gc_cpu_frac", "ratio", "lower", "GC CPU ÷ all CPU, runtime estimate"},
		metricSpec{"runtime.gc_pause_ms", "ms", "lower", "GC stop-the-world pause in one pass"},
		metricSpec{"event_lag_ms_p50", "ms", "lower", "host time from cell event publish to SSE receipt"},
		metricSpec{"event_lag_ms_p99", "ms", "lower", "as above, 99th percentile"},
		metricSpec{"resume_s", "s", "lower", "host time to resume the campaign and render it"},
		metricSpec{"trace.overhead_ms", "ms", "lower", "traced pass wall minus untraced pass wall"},
	)
}()
