package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lacret/internal/core"
	"lacret/internal/obs"
	"lacret/internal/plan"
)

// layerMetrics lists the metrics of a traced run, in print order. A layer
// a workload does not exercise reads 0. README.md says which end-to-end
// metric each should move, and on which workload.
var layerMetrics = []metricDef{
	{"retime.periods_ms", "ms"},
	{"retime.constraints_ms", "ms"},
	{"retime.probes", "count"},
	{"retime.witness_rejects", "count"},
	{"retime.pairs_scanned", "count"},
	{"retime.pairs_indexed", "count"},
	{"retime.constraints", "count"},
	{"retime.emit_ratio", "ratio"},
	{"retime.engine_mb", "MB"},
	{"core.lac_ms", "ms"},
	{"core.lac_rounds", "count"},
	{"core.round_ms", "ms"},
	{"core.warm_rounds", "count"},
	{"core.warm_ratio", "ratio"},
	{"core.minarea_ms", "ms"},
	{"mcmf.augpaths", "count"},
	{"mcmf.phases", "count"},
	{"partition.ms", "ms"},
	{"floorplan.ms", "ms"},
	{"tile.grid_ms", "ms"},
	{"route.ms", "ms"},
	{"route.overflow", "count"},
	{"repeater.ms", "ms"},
	{"plan.graph_ms", "ms"},
	{"plan.span_coverage", "ratio"},
	{"job.submit_ms", "ms"},
	{"job.queue_wait_ms", "ms"},
	{"job.run_ms", "ms"},
	{"job.hits", "count"},
	{"job.submitted", "count"},
	{"job.cache_hit_ratio", "ratio"},
	{"job.rejected", "count"},
	{"service.overhead_ms", "ms"},
	{"service.report_ms", "ms"},
	{"service.report_kb", "KB"},
	{"service.hit_p50_ms", "ms"},
	{"partition.alloc_mb", "MB"},
	{"floorplan.alloc_mb", "MB"},
	{"grid.alloc_mb", "MB"},
	{"route.alloc_mb", "MB"},
	{"repeaters.alloc_mb", "MB"},
	{"graph.alloc_mb", "MB"},
	{"periods.alloc_mb", "MB"},
	{"constraints.alloc_mb", "MB"},
	{"minarea.alloc_mb", "MB"},
	{"lac.alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"check.verify_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"host.ref_ms", "ms"},
	{"host.ref_drift_pct", "%"},
	{"host.steal_pct", "%"},
	{"failed_ratio", "ratio"},
}

// stageWallMetric maps a pipeline stage to the layer metric of its span.
var stageWallMetric = map[string]string{
	"partition":   "partition.ms",
	"floorplan":   "floorplan.ms",
	"grid":        "tile.grid_ms",
	"route":       "route.ms",
	"repeaters":   "repeater.ms",
	"graph":       "plan.graph_ms",
	"periods":     "retime.periods_ms",
	"constraints": "retime.constraints_ms",
	"minarea":     "core.minarea_ms",
	"lac":         "core.lac_ms",
}

// stageCounterMetric maps a stage's event counter ("stage.counter", as in
// plan.StageEvent.Counters and the run report) to its layer metric.
var stageCounterMetric = map[string]string{
	"periods.probes":          "retime.probes",
	"periods.witness_rejects": "retime.witness_rejects",
	"periods.pairs_scanned":   "retime.pairs_scanned",
	"periods.index_pairs":     "retime.pairs_indexed",
	"constraints.constraints": "retime.constraints",
	"route.overflow":          "route.overflow",
	"lac.rounds":              "core.lac_rounds",
	"lac.warm":                "core.warm_rounds",
	"lac.augpaths":            "mcmf.augpaths",
	"lac.phases":              "mcmf.phases",
}

// stageRec is one stage of one traced op.
type stageRec struct {
	Name     string
	WallMS   float64
	AllocMB  float64 // MiB allocated during the stage; < 0 when unknown
	Counters map[string]float64
}

// opTrace is the per-layer record of one traced op.
type opTrace struct {
	Stages   []stageRec
	GCCycles float64 // < 0 when unknown (work done in another process)
	Rounds   []time.Duration
}

// span is one benchmark span, open around a call into the program, with
// the allocation counters sampled at its start. The benchmark's spans live
// in its own obs.Recorder, on a context it never passes to the program, so
// the program's internal tracing stays off. On a context without a
// recorder a span is nil and costs nothing.
type span struct {
	ctx context.Context
	sp  *obs.Span
	m0  memMark
}

func startSpan(ctx context.Context, name string) span {
	c, sp := obs.StartSpan(ctx, name)
	s := span{ctx: c, sp: sp}
	if sp != nil {
		s.m0 = markMem()
	}
	return s
}

// end closes the span, records the MiB allocated during it as its alloc_mb
// attribute, and returns the span's wall time and memory deltas.
func (s span) end() spanDelta {
	if s.sp == nil {
		return spanDelta{}
	}
	m1 := markMem()
	d := spanDelta{allocMB: float64(m1.alloc-s.m0.alloc) / (1 << 20), gc: m1.gc - s.m0.gc}
	s.sp.SetAttr("alloc_mb", d.allocMB)
	s.sp.End()
	d.wallMS = ms(s.sp.Dur)
	return d
}

// spanDelta is what a closed span measured.
type spanDelta struct {
	wallMS, allocMB float64
	gc              uint32
}

// memMark samples the cumulative allocation and GC counters.
type memMark struct {
	alloc uint64
	gc    uint32
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, m.NumGC}
}

// writeTrace saves the spans of a traced run as a Chrome trace (load it in
// chrome://tracing or ui.perfetto.dev) under dir/traces, one track per
// client, and returns the file's path.
func writeTrace(dir, workload string, seed int64, rec *obs.Recorder) (string, error) {
	tdir := filepath.Join(dir, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return "", err
	}
	var tracks []obs.TraceTrack
	for _, root := range rec.Roots() {
		tracks = append(tracks, obs.TraceTrack{Name: root.Name, Spans: []*obs.Span{root}})
	}
	path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteChromeTrace(f, tracks); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// retimeWork returns the period search's probe and scanned-pair counters
// from a registry the program wrote into.
func retimeWork(reg *obs.Registry) (probes, pairs int64) {
	return reg.Counter("retime.probes").Value(), reg.Counter("retime.pairs_scanned").Value()
}

// eventCounters flattens a stage event's counters.
func eventCounters(ev plan.StageEvent) map[string]float64 {
	m := make(map[string]float64, len(ev.Counters))
	for _, c := range ev.Counters {
		m[c.Name] = c.Value
	}
	return m
}

// lacCounters derives the lac stage's counters from a LAC result, the same
// quantities the pipeline's lac stage event carries.
func lacCounters(r *core.Result) map[string]float64 {
	m := map[string]float64{"nfoa": float64(r.NFOA), "nf": float64(r.NF), "rounds": float64(r.NWR)}
	for _, it := range r.Iters {
		m["augpaths"] += float64(it.AugPaths)
		m["phases"] += float64(it.Phases)
		if it.Warm {
			m["warm"]++
		}
	}
	return m
}

// addStageLayers fills the per-layer metrics derivable from traced ops:
// the median over ops of each stage's span, counters, and allocation, the
// median LAC round, GC cycles per op, and the ratios over their parts.
func addStageLayers(layer map[string]float64, ops []opTrace) {
	if len(ops) == 0 {
		return
	}
	series := map[string][]float64{}
	var rounds, gcs []float64
	for _, op := range ops {
		for _, s := range op.Stages {
			if name, ok := stageWallMetric[s.Name]; ok {
				series[name] = append(series[name], s.WallMS)
			}
			if s.AllocMB >= 0 {
				series[s.Name+".alloc_mb"] = append(series[s.Name+".alloc_mb"], s.AllocMB)
			}
			for k, v := range s.Counters {
				if name, ok := stageCounterMetric[s.Name+"."+k]; ok {
					series[name] = append(series[name], v)
				}
			}
			if b, ok := s.Counters["dense_wd_bytes"]; ok && s.Name == "periods" {
				series["retime.engine_mb"] = append(series["retime.engine_mb"], b/(1<<20))
			}
		}
		if op.GCCycles >= 0 {
			gcs = append(gcs, op.GCCycles)
		}
		for _, d := range op.Rounds {
			rounds = append(rounds, ms(d))
		}
	}
	for name, xs := range series {
		layer[name] = median(xs)
	}
	if len(gcs) > 0 {
		layer["gc.cycles"] = median(gcs)
	}
	if len(rounds) > 0 {
		layer["core.round_ms"] = median(rounds)
	}
	if d := layer["retime.pairs_indexed"]; d > 0 {
		layer["retime.emit_ratio"] = layer["retime.constraints"] / d
	}
	if d := layer["core.lac_rounds"]; d > 0 {
		layer["core.warm_ratio"] = layer["core.warm_rounds"] / d
	}
}
