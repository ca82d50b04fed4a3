package main

import (
	"strings"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/reconstruct"
	"repro/internal/sat"
	"repro/internal/service"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// names, units, directions and bounds; the tests hold the two equal.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the daemon sees, measured with
// tracing off. bound is the relative worsening a change may cause
// before it counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"trace_cycles_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics. Which end-to-end metric each
// should move, on which workload, is tabled in README.md.
var perLayer = []metricDef{
	{name: "core.read_log.ns_per_entry", unit: "ns", better: "lower"},
	{name: "core.wire.bytes_in_per_op", unit: "B", better: "lower"},
	{name: "encoding.build.ms", unit: "ms", better: "lower"},
	{name: "service.encoding.builds", unit: "count", better: "lower"},
	{name: "gf2.features.ns", unit: "ns", better: "lower"},
	{name: "reconstruct.route.decode.ns", unit: "ns", better: "lower"},
	{name: "reconstruct.route.sat-inc.ns", unit: "ns", better: "lower"},
	{name: "reconstruct.route_share.decode", unit: "ratio", better: "higher"},
	{name: "reconstruct.route_share.sat-inc", unit: "ratio", better: "lower"},
	{name: "reconstruct.fallback_ratio", unit: "ratio", better: "lower"},
	{name: "reconstruct.candidates_per_solve", unit: "count", better: "lower"},
	{name: "sat.conflicts_per_solve", unit: "count", better: "lower"},
	{name: "sat.decisions_per_solve", unit: "count", better: "lower"},
	{name: "sat.propagations_per_solve", unit: "count", better: "lower"},
	{name: "sat.xor_props_per_solve", unit: "count", better: "lower"},
	{name: "sat.solve.mean_us", unit: "us", better: "lower"},
	{name: "reconstruct.session.clone_ratio", unit: "ratio", better: "lower"},
	{name: "properties.parse.ns", unit: "ns", better: "lower"},
	{name: "service.cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.coalesced", unit: "count", better: "higher"},
	{name: "service.solves_per_op", unit: "count", better: "lower"},
	{name: "service.request.mean_us", unit: "us", better: "lower"},
	{name: "service.solve.mean_us", unit: "us", better: "lower"},
	{name: "service.overhead_us", unit: "us", better: "lower"},
	{name: "service.stream.frame.mean_us", unit: "us", better: "lower"},
	{name: "service.queue.depth.max", unit: "count", better: "lower"},
	{name: "service.shed", unit: "count", better: "lower"},
	{name: "service.timeouts", unit: "count", better: "lower"},
	{name: "logstore.open.ms", unit: "ms", better: "lower"},
	{name: "logstore.append.ns", unit: "ns", better: "lower"},
	{name: "logstore.append.bytes_per_op", unit: "B", better: "lower"},
	{name: "logstore.rotations", unit: "count", better: "lower"},
	{name: "logstore.query.ns_per_record", unit: "ns", better: "lower"},
	{name: "logstore.query.records_per_query", unit: "count", better: "lower"},
	{name: "process.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "process.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// daemonLayers derives the per-layer metrics the daemon counts itself,
// from a snapshot of its registry taken when the timed phase ends. The
// registry is the daemon's own since its cold start, so the warm-up
// probe is included: on a workload that never reaches a layer, the
// layer's numbers are the probe's.
func daemonLayers(s obs.Snapshot, ops float64) map[string]float64 {
	c, h, g := s.Counters, s.Histograms, s.Gauges
	num := func(name string) float64 { return float64(c[name]) }
	mean := func(name string) float64 { return ratio(float64(h[name].Sum), float64(h[name].Count)) }
	routed := 0.0
	for name, v := range c {
		if strings.HasPrefix(name, reconstruct.MetricDispatchChosenPrefix) {
			routed += float64(v)
		}
	}
	satSolves := num(sat.MetricSolveCalls)
	reuse, clone := num(service.MetricSessionReuse), num(service.MetricSessionClone)
	hits, misses := num(service.MetricCacheHits), num(service.MetricCacheMisses)
	req, frame, solve := h[service.SpanRequest+".ns"], h[service.SpanStreamFrame+".ns"], h[service.SpanSolve+".ns"]
	return map[string]float64{
		"core.wire.bytes_in_per_op":        ratio(num(core.MetricWireBytesIn), ops),
		"service.encoding.builds":          num(service.MetricEncodingBuilds),
		"reconstruct.route_share.decode":   ratio(num(reconstruct.MetricDispatchChosenPrefix+reconstruct.RouteDecode), routed),
		"reconstruct.route_share.sat-inc":  ratio(num(reconstruct.MetricDispatchChosenPrefix+reconstruct.RouteSession), routed),
		"reconstruct.fallback_ratio":       ratio(num(reconstruct.MetricDispatchFallback), routed),
		"sat.conflicts_per_solve":          ratio(num(sat.MetricConflicts), satSolves),
		"sat.decisions_per_solve":          ratio(num(sat.MetricDecisions), satSolves),
		"sat.propagations_per_solve":       ratio(num(sat.MetricPropagations), satSolves),
		"sat.xor_props_per_solve":          ratio(num(sat.MetricXorProps), satSolves),
		"sat.solve.mean_us":                mean(sat.MetricSolveNS) / 1e3,
		"reconstruct.session.clone_ratio":  ratio(clone, reuse+clone),
		"service.cache.hit_ratio":          ratio(hits, hits+misses),
		"service.coalesced":                num(service.MetricCoalesced),
		"service.solves_per_op":            ratio(num(service.MetricSolves), ops),
		"service.request.mean_us":          mean(service.SpanRequest+".ns") / 1e3,
		"service.solve.mean_us":            mean(service.SpanSolve+".ns") / 1e3,
		"service.overhead_us":              ratio(float64(req.Sum+frame.Sum-solve.Sum), float64(req.Count+frame.Count)) / 1e3,
		"service.stream.frame.mean_us":     mean(service.SpanStreamFrame+".ns") / 1e3,
		"service.queue.depth.max":          float64(g[service.MetricQueueDepth].Max),
		"service.shed":                     num(service.MetricShed),
		"service.timeouts":                 num(service.MetricTimeouts),
		"logstore.append.bytes_per_op":     ratio(num(logstore.MetricAppendBytes), num(logstore.MetricAppends)),
		"logstore.rotations":               num(logstore.MetricRotations),
		"logstore.query.records_per_query": ratio(num(logstore.MetricQueryRecords), num(logstore.MetricQueries)),
	}
}

// layerRow is one layer's share of the traced replay.
type layerRow struct {
	Layer  string `json:"layer"`
	Calls  int    `json:"calls"`
	SelfNS int64  `json:"self_ns"`
}

type callStat struct {
	calls int
	ns    int64
}

// layerStats aggregates the traced replay's spans.
type layerStats struct {
	byName   map[string]callStat // own time per span name
	rows     []layerRow
	opSelfNS int64 // layer self time of the operations (set-up excluded)
}

// aggregate computes self times. A route span's own time excludes the
// gf2.features span just before it: EnumerateRouted repeats that
// elimination internally, and the replay times it separately. The op
// root's self time is the replay's own bookkeeping, layer "bench".
func aggregate(spans []span) layerStats {
	ls := layerStats{byName: map[string]callStat{}}
	layers := map[string]*layerRow{}
	child := make(map[int32]int64) // op span id -> children's duration
	for i, s := range spans {
		own := s.End - s.Start
		if strings.HasPrefix(s.Name, "reconstruct.route.") && i > 0 && spans[i-1].Name == "gf2.features" {
			own -= spans[i-1].End - spans[i-1].Start
		}
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
		st := ls.byName[s.Name]
		st.calls++
		st.ns += own
		ls.byName[s.Name] = st
		if s.Name != "op" {
			layer := s.Name[:strings.IndexByte(s.Name, '.')]
			if layers[layer] == nil {
				layers[layer] = &layerRow{Layer: layer}
			}
			layers[layer].Calls++
			layers[layer].SelfNS += own
			if s.Req >= 0 {
				ls.opSelfNS += own
			}
		}
	}
	bench := &layerRow{Layer: "bench"}
	for _, s := range spans {
		if s.Name == "op" {
			bench.Calls++
			bench.SelfNS += s.End - s.Start - child[s.ID]
		}
	}
	layers["bench"] = bench
	for _, r := range layers {
		ls.rows = append(ls.rows, *r)
	}
	return ls
}

// metrics derives the replay's per-layer metrics; rep carries the
// counts spans do not (entries and records read, candidates).
func (ls layerStats) metrics(rep *replayer) map[string]float64 {
	perCall := func(name string) float64 {
		st := ls.byName[name]
		return ratio(float64(st.ns), float64(st.calls))
	}
	return map[string]float64{
		"core.read_log.ns_per_entry":       ratio(float64(ls.byName["core.read_log"].ns), float64(rep.entriesRead)),
		"encoding.build.ms":                float64(ls.byName["encoding.build"].ns) / 1e6,
		"gf2.features.ns":                  perCall("gf2.features"),
		"reconstruct.route.decode.ns":      perCall("reconstruct.route." + reconstruct.RouteDecode),
		"reconstruct.route.sat-inc.ns":     perCall("reconstruct.route." + reconstruct.RouteSession),
		"reconstruct.candidates_per_solve": ratio(float64(rep.candidates), float64(rep.solves)),
		"properties.parse.ns":              perCall("properties.parse"),
		"logstore.open.ms":                 float64(ls.byName["logstore.open"].ns) / 1e6,
		"logstore.append.ns":               perCall("logstore.append"),
		"logstore.query.ns_per_record":     ratio(float64(ls.byName["logstore.query"].ns), float64(rep.recordsRead)),
	}
}
