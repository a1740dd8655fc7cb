package main

import "sort"

// metric is one reported figure. BENCHMARK.json lists the same names and
// units; the self-test holds the two in step.
type metric struct {
	name, unit string
}

// endToEnd are the figures a user of the campaign sees, measured with
// tracing off. failed_share is reported as its complement, pass_share, so
// that no end-to-end figure is ever zero.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"total_s", "s"},
	{"peak_rss_mb", "MB"},
	{"pass_share", "ratio"},
}

// perLayer are read from the values the program's calls return, or timed
// around those calls, in traced repetitions.
var perLayer = []metric{
	{"gen.snapshot_s", "s"},
	{"campaign.bootstrap_s", "s"},
	{"campaign.probe_s", "s"},
	{"campaign.merge_s", "s"},
	{"campaign.shard_imbalance", "ratio"},
	{"campaign.probes", "count"},
	{"campaign.bootstrap_probes", "count"},
	{"campaign.targets", "count"},
	{"campaign.records", "count"},
	{"campaign.budget_hits", "count"},
	{"campaign.loop_drops", "count"},
	{"campaign.churn_events", "count"},
	{"campaign.alloc_mb", "MB"},
	{"campaign.allocs_per_probe", "allocs/probe"},
	{"campaign.gc_cycles", "count"},
	{"netsim.sweep_walks", "count"},
	{"netsim.sweep_replies", "count"},
	{"netsim.sweep_fallbacks", "count"},
	{"netsim.sweep_bypasses", "count"},
	{"netsim.sweep_aliases", "count"},
	{"netsim.sweep_yield", "ratio"},
	{"netsim.cache_hits", "count"},
	{"netsim.cache_misses", "count"},
	{"netsim.cache_fast_forwards", "count"},
	{"netsim.cache_shared_hits", "count"},
	{"netsim.cache_invalidations", "count"},
	{"netsim.cache_hit_ratio", "ratio"},
	{"reveal.revelations", "count"},
	{"reveal.hidden_hops", "count"},
	{"reveal.failed", "count"},
	{"tracefile.write_s", "s"},
	{"tracefile.mb", "MB"},
	{"wire.encode_s", "s"},
	{"wire.decode_s", "s"},
	{"wire.blob_mb", "MB"},
	{"dist.stream_mb", "MB"},
	{"dist.worker_resident", "routers"},
	{"experiments.world_s", "s"},
	{"experiments.aliases_s", "s"},
	{"experiments.churn_s", "s"},
	{"experiments.table3_s", "s"},
	{"experiments.other_s", "s"},
	{"experiments.shape_pass", "count"},
	{"trace.overhead_s", "s"},
	{"trace.glue_s", "s"},
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (Python's statistics.quantiles default).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Position p·(n+1), 1-based, clamped to the sample.
		h := p * float64(n+1)
		if h <= 1 {
			return s[0]
		}
		if h >= float64(n) {
			return s[n-1]
		}
		i := int(h)
		return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), median(s), at(0.75)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
