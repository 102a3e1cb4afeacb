package main

import (
	"fmt"
	"strings"
	"time"
)

// phaseMetric maps the tuner's span names onto the per-layer metrics.
var phaseMetric = map[string]string{
	"phase1/sampling":     "core.phase1_s",
	"phase1/warm-anchors": "core.warm_anchors_s",
	"qcsa/reduce":         "core.qcsa_s",
	"dagp/select-base":    "core.dagp_select_s",
	"iicp/select":         "core.iicp_s",
	"phase2/search":       "core.phase2_s",
	"final/select":        "core.final_s",
}

// unitLayers turns the spans of one session or job into per-layer totals:
// the self time of each tuner phase (its duration minus the
// hyperparameter resamples and runner calls inside it), the bo self time,
// the resamples and the runner calls.
func unitLayers(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	runnerRuns := 0.0
	for _, s := range spans {
		switch {
		case phaseMetric[s.Name] != "":
			out[phaseMetric[s.Name]] += self[s.ID]
			if s.Name == "phase1/sampling" || s.Name == "phase1/warm-anchors" || s.Name == "phase2/search" {
				out["bo.self_s"] += self[s.ID]
			}
		case s.Name == "gp/hyper-resample":
			out["gp.resample_s"] += s.dur()
			out["gp.resamples"]++
		case strings.HasPrefix(s.Name, "runner/"):
			out["runner.calls_s"] += s.dur()
			runnerRuns += float64(s.Runs)
		}
	}
	out["runner.runs"] = runnerRuns
	return out
}

// meanLayers averages per-unit layer maps, so each metric reads "per
// session", "per job" or "per pass". runner.run_us is derived from the
// totals rather than averaged.
func meanLayers(units []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(units) == 0 {
		return out
	}
	for _, u := range units {
		for k, v := range u {
			out[k] += v / float64(len(units))
		}
	}
	if out["runner.runs"] > 0 {
		out["runner.run_us"] = out["runner.calls_s"] / out["runner.runs"] * 1e6
	}
	return out
}

// jobSpans rebuilds one finished job's span tree: the job root, its queue
// wait and run, the tuner phases the job trace endpoint reported, and the
// executions the service's run observer timestamped while the job ran.
// Parents come from interval containment.
func jobSpans(rec *recorder, j jobRecord, runs *runLog) []span {
	st := j.Status
	if st.Started == nil || st.Finished == nil {
		return nil
	}
	started, finished := *st.Started, *st.Finished
	trace := j.ID
	mk := func(name string, a, b time.Time, n int64) span {
		return span{Trace: trace, ID: rec.reserve(), Name: name, Start: rec.at(a), End: rec.at(b), Runs: n}
	}
	spans := []span{
		mk("job", st.Submitted, finished, 0),
		mk("job/queue", st.Submitted, started, 0),
		mk("job/run", started, finished, 0),
	}
	for _, p := range j.Trace {
		a := started.Add(time.Duration(p.StartMS * float64(time.Millisecond)))
		spans = append(spans, mk(p.Name, a, a.Add(time.Duration(p.WallMS*float64(time.Millisecond))), 0))
	}
	if runs != nil {
		runs.mu.Lock()
		for _, r := range runs.runs {
			if r.end.Before(started) || r.end.After(finished) {
				continue
			}
			a := r.end.Add(-time.Duration(r.wall * float64(time.Second)))
			spans = append(spans, mk("runner/run-app", a, r.end, 1))
		}
		runs.mu.Unlock()
	}
	linkByContainment(spans)
	for _, s := range spans {
		rec.put(s)
	}
	return spans
}

// merge fills every metric missing (or zero) in dst from src, noting the
// source of each filled value.
func merge(dst, src map[string]float64, source map[string]string, from string) {
	for k, v := range src {
		if dst[k] == 0 && v != 0 {
			dst[k] = v
			source[k] = from
		}
	}
}

// layer groups the Go packages of the module the way the prediction table
// does.
var layerOf = map[string]string{
	"gp": "gp+mat+bo", "mat": "gp+mat+bo", "bo": "gp+mat+bo",
	"ml": "ml+baselines", "baselines": "ml+baselines",
	"sparksim": "sparksim+runner", "runner": "sparksim+runner", "workloads": "sparksim+runner",
	"service": "service", "service/retrieve": "service",
	"core": "core", "dagp": "core", "qcsa": "core", "iicp": "core", "kpca": "core", "stat": "core", "conf": "core",
	"experiments": "experiments",
	"obs":         "obs", "progress": "obs",
	"locat": "core", // the public facade
}

// layers lists the share rows in print order.
var layers = []string{"gp+mat+bo", "ml+baselines", "sparksim+runner", "service", "core", "experiments", "obs", "bench", "other"}

// shareMetric names the per-layer metric of one layer's CPU share.
func shareMetric(layer string) string {
	return "share." + strings.NewReplacer("+", "_").Replace(layer)
}

// predicted is the CPU share each workload was expected to spend per layer,
// from profiles taken before the benchmark existed; "-" is no estimate.
var predicted = map[string]map[string]string{
	"tune-cold":   {"gp+mat+bo": "~85%", "ml+baselines": "0", "sparksim+runner": "~3%", "service": "0"},
	"paper-quick": {"gp+mat+bo": "~49%", "ml+baselines": "~33%", "sparksim+runner": "~10%", "service": "0"},
	"serve-mix":   {"gp+mat+bo": "jobs only", "ml+baselines": "0", "sparksim+runner": "small", "service": "~all of recommend"},
}

func shareTable(workload string, shares map[string]float64) []string {
	out := []string{fmt.Sprintf("%-16s %10s %12s", "layer", "measured", "predicted")}
	for _, l := range layers {
		p := predicted[workload][l]
		if p == "" {
			p = "-"
		}
		out = append(out, fmt.Sprintf("%-16s %9.1f%% %12s", l, 100*shares[l], p))
	}
	return out
}
