// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the tuner — a fixed amount of work sized by --seconds —
// checks every output, and prints a report followed by one JSON line of
// metrics:
//
//	bash perfbench/run.sh --workload tune-cold --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	tune-cold    back-to-back cold LOCAT sessions through locat.Tune
//	paper-quick  back-to-back passes over the quick evaluation suite
//	serve-mix    recommendation reads plus warm tune jobs over HTTP
//	all          every workload, each in its own process
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// once untraced and once traced and reports the per-layer metrics, the
// measured layer shares of CPU and the tracing overhead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"locat/internal/service"
	"locat/internal/service/retrieve"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics every untraced run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"unit_p50_s", "s"},
	{"recommend_p50_ms", "ms"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics every traced run reports, on every workload.
func perLayer() []metricSpec {
	out := []metricSpec{
		{"service.submit_p50_ms", "ms"},
		{"service.queue_wait_p50_s", "s"},
		{"service.run_p50_s", "s"},
		{"service.status_p50_ms", "ms"},
		{"service.http_overhead_p50_ms", "ms"},
		{"service.rejected", "count"},
		{"store.get_p50_ms", "ms"},
		{"store.gets_per_recommend", "count"},
		{"store.put_p50_ms", "ms"},
		{"store.checkpoint_put_p50_ms", "ms"},
		{"store.checkpoint_puts_per_job", "count"},
		{"retrieve.nearest_p50_us", "us"},
		{"retrieve.hit_frac", "frac"},
		{"gen.late_p99_ms", "ms"},
		{"recommend.p90_ms", "ms"},
		{"recommend.p99_ms", "ms"},
		{"recommend.max_rps", "1/s"},
		{"core.phase1_s", "s"},
		{"core.warm_anchors_s", "s"},
		{"core.qcsa_s", "s"},
		{"core.dagp_select_s", "s"},
		{"core.iicp_s", "s"},
		{"core.phase2_s", "s"},
		{"core.final_s", "s"},
		{"bo.self_s", "s"},
		{"gp.resample_s", "s"},
		{"gp.resamples", "count"},
		{"gp.fit_ms", "ms"},
		{"gp.predict_batch_ms", "ms"},
		{"gp.sample_hyper_ms", "ms"},
		{"mat.cholesky_ms", "ms"},
		{"runner.calls_s", "s"},
		{"runner.runs", "count"},
		{"runner.run_us", "us"},
		{"runner.stack_overhead_us", "us"},
		{"sparksim.run_app_us", "us"},
	}
	for _, id := range paperIDs() {
		out = append(out, metricSpec{"experiments." + id + "_s", "s"})
	}
	out = append(out,
		metricSpec{"experiments.runs", "count"},
		metricSpec{"baselines.tuneful_s", "s"},
		metricSpec{"baselines.dac_s", "s"},
		metricSpec{"baselines.gborl_s", "s"},
		metricSpec{"baselines.qtune_s", "s"},
		metricSpec{"ml.gbrt_fit_ms", "ms"},
		metricSpec{"go.alloc_mb", "MiB"},
		metricSpec{"go.gc_cycles", "count"},
		metricSpec{"go.gc_cpu_frac", "frac"},
		metricSpec{"det.cluster_s", "s"},
		metricSpec{"det.tuned_s", "s"},
		metricSpec{"det.runs", "count"},
		metricSpec{"trace.overhead_frac", "frac"},
	)
	for _, l := range layers {
		out = append(out, metricSpec{shareMetric(l), "frac"})
	}
	return out
}

// unitName is what one unit of work is called in each workload's report.
var unitName = map[string]string{
	"tune-cold":   "session_p50_s",
	"paper-quick": "pass_p50_s",
	"serve-mix":   "job_p50_s",
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "tune-cold, paper-quick, serve-mix or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced, per-layer variant")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for temp files and traces")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.workload == "all" {
		if err := runAll(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := unitName[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	var res result
	var report []string
	var err error
	if o.trace == 0 {
		res, report, err = untraced(o)
	} else {
		res, report, err = traced(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range report {
		fmt.Println(line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// setUp builds the served store setupRepeats times, keeps the last and
// returns the median set-up time in wall seconds. m takes a reference sample
// before each set-up and after the last.
func setUp(o options, m *speedMeter) (*serveEnv, float64, error) {
	var times []float64
	var env *serveEnv
	m.mark()
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
		}
		t := time.Now()
		var err error
		env, err = newServe(o.out, o.seed, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, secs(time.Since(t)))
		m.mark()
	}
	return env, median(times), nil
}

// tally counts checked operations.
type tally struct {
	attempted, failed int
	why               []string
}

func (t *tally) units(us []unit) {
	for _, u := range us {
		t.attempted++
		if !u.OK {
			t.failed++
			t.why = append(t.why, u.Name+": "+u.Why)
		}
	}
}

func (t *tally) reads(r readResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	if r.failed > 0 {
		t.why = append(t.why, fmt.Sprintf("%d recommendations failed their checks", r.failed))
	}
}

// jobUnits checks serve-mix jobs — each must succeed warm-started — and
// turns them into units.
func jobUnits(jobs []jobRecord) []unit {
	var out []unit
	for _, j := range jobs {
		// overhead_sec, the session's own account of cluster seconds, is
		// summed in run order; the result's cluster_sec tally is summed in
		// completion order under parallel batches and can differ in the
		// last bits between identical jobs.
		u := unit{Name: j.ID, WallS: j.latency(), Cluster: j.Result.OverheadSec, Tuned: j.Result.TunedSec,
			Runs: j.Result.Runs, OK: j.err == "", Why: j.err}
		if u.OK && !j.Result.WarmStarted {
			u.OK, u.Why = false, "job did not warm-start"
		}
		if u.OK && j.Result.Degraded != "" {
			u.OK, u.Why = false, "job degraded: "+j.Result.Degraded
		}
		out = append(out, u)
	}
	return out
}

// writerPoll is how often the serve-mix writer polls a job's status.
const writerPoll = 50 * time.Millisecond

// writerIterations caps the phase-2 search of the writer's jobs at the
// tuner's minimum iteration count, so every warm job runs the same 14
// executions (4 anchors, 10 searches) and job latency is not a mix of
// early-stopped and full-length sessions.
const writerIterations = 10

// writerJobsPerSecond sets how many jobs a serve-mix run submits:
// writerJobsPerSecond × seconds, rounded up to whole blocks of the job plan
// — about as many as finish in that time on a 2-vCPU VM. The count is fixed
// rather than timed because every finished job adds history that later
// jobs warm-start from, so a job's latency grows with the jobs before it;
// a count that followed the host's speed would take job_p50_s at another
// history size in every run.
const writerJobsPerSecond = 6

// minReads is the least number of reads a serve-mix run sends while the
// writer runs, however soon the writer finishes.
const minReads = 100

// serveLoad runs the serve-mix measurement on env, one block of the job
// plan at a time: the writer runs the block's warm-startable jobs, two in
// flight, while the open-loop reader sends requests at mixRate until the
// writer is done. m, when set, takes a reference sample on the idle service
// before the first block and after each one. The rate sweep follows on the
// idle service.
func serveLoad(env *serveEnv, seed int64, seconds float64, compare bool, m *speedMeter) ([]jobRecord, []unit, readResult) {
	blocks := max(1, int(math.Ceil(writerJobsPerSecond*seconds/float64(len(env.seeded)))))
	var specs []service.JobSpec
	for _, j := range jobPlan(seed, env.seeded, blocks*len(env.seeded)) {
		specs = append(specs, service.JobSpec{Cluster: j.Cluster, Benchmark: j.Benchmark, DataSizeGB: j.GB, Seed: j.Seed,
			MaxIterations: writerIterations})
	}
	reqs := readRequests(seed)
	var rr readResult
	var jobs []jobRecord
	var us []unit
	m.mark()
	for b := 0; b < blocks; b++ {
		done := make(chan []jobRecord, 1)
		go func(block []service.JobSpec) { done <- env.runJobs(block, 2, writerPoll) }(specs[b*len(env.seeded) : (b+1)*len(env.seeded)])
		var block []jobRecord
		last := b == blocks-1
		s, _ := env.openLoop(reqs, len(rr.base), mixRate, func(i int) bool {
			if block != nil {
				return last && len(rr.base)+i < minReads
			}
			select {
			case block = <-done:
				return last && len(rr.base)+i < minReads
			default:
				return true
			}
		}, 0, compare)
		if block == nil {
			block = <-done
		}
		m.mark()
		rr.base = append(rr.base, s...)
		us = append(us, jobUnits(block)...)
		jobs = append(jobs, block...)
	}
	rr.count(rr.base)
	env.sweep(reqs, &rr)
	return jobs, us, rr
}

func units(us []unit, f func(unit) float64) []float64 {
	out := make([]float64, 0, len(us))
	for _, u := range us {
		out = append(out, f(u))
	}
	return out
}

func untraced(o options) (result, []string, error) {
	seconds := float64(o.seconds)
	meter := &speedMeter{}
	env, setup, err := setUp(o, meter)
	if err != nil {
		return result{}, nil, err
	}
	defer env.close()
	var us []unit
	var rr readResult
	switch o.workload {
	case "tune-cold":
		us = coldLoop(o.seed, seconds, nil, meter)
		rr = env.readLoad(o.seed, upTo(probeReads), false, meter)
	case "paper-quick":
		us = paperLoop(o.seed, seconds, nil, meter)
		rr = env.readLoad(o.seed, upTo(probeReads), false, meter)
	case "serve-mix":
		_, us, rr = serveLoad(env, o.seed, seconds, false, meter)
	}
	var t tally
	t.units(us)
	t.reads(rr)
	var base []float64
	for _, s := range rr.base {
		base = append(base, s.LatMS)
	}
	wallUnit := median(units(us, func(u unit) float64 { return u.WallS }))
	f := meter.factor()
	m := map[string]float64{
		"setup_s":          setup * f,
		"unit_p50_s":       wallUnit * f,
		"recommend_p50_ms": median(base) * f,
		"peak_rss_mb":      peakRSSMB(),
	}
	if t.attempted > 0 {
		m["ok_frac"] = 1 - float64(t.failed)/float64(t.attempted)
	}
	res := result{Correct: t.failed == 0 && len(us) > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]value{}}
	for _, s := range endToEnd {
		res.Metrics[s.Name] = value{m[s.Name], s.Unit}
	}

	rep := []string{fmt.Sprintf("perfbench %s seed=%d seconds=%d trace=0", o.workload, o.seed, o.seconds)}
	add := func(name string, v float64, unit, note string) {
		rep = append(rep, fmt.Sprintf("  %-20s %14.4f %-5s %s", name, v, unit, note))
	}
	add("ref_sample_s", meter.mean(), "s", fmt.Sprintf("mean of %d reference samples, %.3f s at the reference speed: times below are wall × %.4f",
		len(meter.samples), refNominalS, f))
	add("setup_s", m["setup_s"], "s", fmt.Sprintf("median of %d set-ups (store seeded with %d sessions); wall %.4f s", setupRepeats, len(env.setupJobs), setup))
	add(unitName[o.workload], m["unit_p50_s"], "s", fmt.Sprintf("= unit_p50_s, n=%d; wall %.4f s", len(us), wallUnit))
	rate := baseRate
	if o.workload == "serve-mix" {
		rate = mixRate
	}
	add("recommend_p50_ms", m["recommend_p50_ms"], "ms", fmt.Sprintf("n=%d at %.0f/s, from due time; wall %.4f ms", len(base), rate, median(base)))
	add("recommend_p90_ms", quantile(base, 0.90), "ms", fmt.Sprintf("n=%d, wall; printed, not gated", len(base)))
	add("recommend_p99_ms", quantile(base, 0.99), "ms", fmt.Sprintf("n=%d, wall; printed, not gated", len(base)))
	add("recommend_max_rps", rr.maxRPS, "1/s", fmt.Sprintf("printed, not gated; p90 <= %.0f ms; closed-loop capacity %.0f/s; steps %s",
		latencyLimitMS, rr.capacity, stepsString(rr.steps)))
	add("failed_frac", 1-m["ok_frac"], "frac", fmt.Sprintf("%d of %d (ok_frac %.4f)", t.failed, t.attempted, m["ok_frac"]))
	add("cluster_s", median(units(us, func(u unit) float64 { return u.Cluster })), "s", "median simulated cluster seconds per unit (deterministic)")
	add("tuned_s", median(units(us, func(u unit) float64 { return u.Tuned })), "s", "median tuned latency per unit, or pass final cost (deterministic)")
	add("peak_rss_mb", m["peak_rss_mb"], "MiB", "")
	for _, w := range t.why {
		rep = append(rep, "  FAILED "+w)
	}
	return res, rep, nil
}

// probeReads is the base-rate request count of the read probe that
// tune-cold and paper-quick run after their main loop.
const probeReads = 600

func stepsString(steps []rateStep) string {
	var parts []string
	for _, s := range steps {
		mark := "ok"
		if !s.Passed {
			mark = "fail"
		}
		parts = append(parts, fmt.Sprintf("%.0f:%s(p90 %.1f)", s.Rate, mark, s.P90MS))
	}
	return strings.Join(parts, ",")
}

func traced(o options) (result, []string, error) {
	half := float64(o.seconds) / 2
	var t tally

	// A: the untraced reference, for the identity check and the overhead.
	envA, err := newServe(o.out, o.seed, nil)
	if err != nil {
		return result{}, nil, err
	}
	var unitsA []unit
	switch o.workload {
	case "tune-cold":
		unitsA = coldLoop(o.seed, half, nil, nil)
	case "paper-quick":
		unitsA = paperLoop(o.seed, half, nil, nil)
	case "serve-mix":
		var rr readResult
		_, unitsA, rr = serveLoad(envA, o.seed, half, false, nil)
		t.reads(rr)
	}
	envA.close()
	t.units(unitsA)

	// B: the traced run.
	rec := newRecorder()
	envB, err := newServe(o.out, o.seed, rec)
	if err != nil {
		return result{}, nil, err
	}
	defer envB.close()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, nil, err
	}
	g0 := readGoStats()
	var unitsB []unit
	var jobsB []jobRecord
	var rr readResult
	switch o.workload {
	case "tune-cold":
		unitsB = coldLoop(o.seed, half, rec, nil)
	case "paper-quick":
		unitsB = paperLoop(o.seed, half, rec, nil)
	case "serve-mix":
		jobsB, unitsB, rr = serveLoad(envB, o.seed, half, true, nil)
		for _, j := range jobsB {
			if sp := jobSpans(rec, j, envB.runs); sp != nil {
				for i := range unitsB {
					if unitsB[i].Name == j.ID {
						unitsB[i].Layers = unitLayers(sp)
					}
				}
			}
		}
	}
	g1 := readGoStats()
	pprof.StopCPUProfile()
	t.units(unitsB)
	if o.workload != "serve-mix" {
		rr = envB.readLoad(o.seed, upTo(probeReads), true, nil)
	}
	t.reads(rr)

	// Identity: tracing must not move a single deterministic figure.
	n := min(len(unitsA), len(unitsB))
	var ratios []float64
	for i := 0; i < n; i++ {
		a, b := unitsA[i], unitsB[i]
		if a.OK && b.OK && !a.same(b) {
			t.failed++
			t.why = append(t.why, fmt.Sprintf("traced %s differs: cluster %v/%v tuned %v/%v runs %d/%d",
				b.Name, a.Cluster, b.Cluster, a.Tuned, b.Tuned, a.Runs, b.Runs))
		}
		if a.WallS > 0 {
			ratios = append(ratios, b.WallS/a.WallS)
		}
	}
	for i, a := range envA.setupJobs {
		if b := envB.setupJobs[i]; a.Result != b.Result {
			t.failed++
			t.why = append(t.why, fmt.Sprintf("traced set-up job %s differs from the untraced one", b.ID))
		}
	}

	// The workload's own per-layer figures.
	own := meanLayers(layerMaps(unitsB))
	if o.workload == "serve-mix" {
		for k, v := range serveLayers(envB, jobsB, &rr, len(envB.setupJobs)+len(jobsB)) {
			own[k] = v
		}
	}
	allocMB, gcs, gcFrac := goDelta(g0, g1, len(unitsB))
	own["go.alloc_mb"], own["go.gc_cycles"], own["go.gc_cpu_frac"] = allocMB, gcs, gcFrac
	own["det.cluster_s"] = median(units(unitsB, func(u unit) float64 { return u.Cluster }))
	own["det.tuned_s"] = median(units(unitsB, func(u unit) float64 { return u.Tuned }))
	own["det.runs"] = median(units(unitsB, func(u unit) float64 { return float64(u.Runs) }))
	if len(ratios) > 0 {
		own["trace.overhead_frac"] = median(ratios) - 1
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range layers {
		own[shareMetric(l)] = shares[l]
	}
	source := map[string]string{}
	for k, v := range own {
		if v != 0 {
			source[k] = "workload"
		}
	}

	// Layers the workload does not reach are measured where they work: the
	// set-up jobs and the read probe for the service, direct probes for
	// single layers, one paper pass for the experiment drivers.
	setupJobs := envB.setupJobs
	var setupLayers []map[string]float64
	for _, j := range setupJobs {
		if sp := jobSpans(rec, j, envB.runs); sp != nil {
			setupLayers = append(setupLayers, unitLayers(sp))
		}
	}
	fromSetup := meanLayers(setupLayers)
	for k, v := range serveLayers(envB, setupJobs, &rr, len(setupJobs)+len(jobsB)) {
		fromSetup[k] = v
	}
	merge(own, fromSetup, source, "set-up jobs + read probe")
	merge(own, layerProbes(o.seed, retrieve.Load(envB.fs.IndexPath())), source, "probe")
	if o.workload != "paper-quick" {
		p := paperPass(o.seed, rec, "probe-pass")
		if !p.OK {
			t.failed++
			t.why = append(t.why, "probe pass: "+p.Why)
		}
		merge(own, p.Layers, source, "probe pass")
	}

	tracePath := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
	if err := rec.write(tracePath); err != nil {
		return result{}, nil, err
	}

	res := result{Correct: t.failed == 0 && len(unitsB) > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]value{}}
	rep := []string{fmt.Sprintf("perfbench %s seed=%d seconds=%d trace=1", o.workload, o.seed, o.seconds)}
	for _, s := range perLayer() {
		res.Metrics[s.Name] = value{own[s.Name], s.Unit}
		src := source[s.Name]
		if src == "" {
			src = "-"
		}
		rep = append(rep, fmt.Sprintf("  %-34s %14.6g %-6s %s", s.Name, own[s.Name], s.Unit, src))
	}
	rep = append(rep, fmt.Sprintf("  identity: %d traced units compared with the untraced run; tracing overhead %+.1f%% (median paired wall ratio)",
		n, 100*own["trace.overhead_frac"]))
	rep = append(rep, "  CPU share by layer while the traced workload ran:")
	for _, l := range shareTable(o.workload, shares) {
		rep = append(rep, "    "+l)
	}
	rep = append(rep, "  spans: "+tracePath)
	for _, w := range t.why {
		rep = append(rep, "  FAILED "+w)
	}
	return res, rep, nil
}

func layerMaps(us []unit) []map[string]float64 {
	var out []map[string]float64
	for _, u := range us {
		if u.Layers != nil {
			out = append(out, u.Layers)
		}
	}
	return out
}

// serveLayers measures the service, store, retrieval and load-generator
// layers over the given jobs and read phase. totalJobs is every job the
// service ran since it started, the base of the per-job store counts.
func serveLayers(e *serveEnv, jobs []jobRecord, rr *readResult, totalJobs int) map[string]float64 {
	out := map[string]float64{}
	var submit, queue, run, polls []float64
	rejected := 0
	for _, j := range jobs {
		submit = append(submit, j.SubmitMS)
		polls = append(polls, j.PollMS...)
		if j.Rejected {
			rejected++
		}
		if st := j.Status; st.Started != nil && st.Finished != nil {
			queue = append(queue, secs(st.Started.Sub(st.Submitted)))
			run = append(run, secs(st.Finished.Sub(*st.Started)))
		}
	}
	out["service.submit_p50_ms"] = median(submit)
	out["service.queue_wait_p50_s"] = median(queue)
	out["service.run_p50_s"] = median(run)
	out["service.status_p50_ms"] = median(polls)
	out["service.rejected"] = float64(rejected)
	if e.ts != nil {
		_, gets := e.ts.stats("store/get")
		_, puts := e.ts.stats("store/put")
		cpN, cps := e.ts.stats("store/checkpoint-put")
		out["store.get_p50_ms"] = median(gets)
		out["store.put_p50_ms"] = median(puts)
		out["store.checkpoint_put_p50_ms"] = median(cps)
		if totalJobs > 0 {
			out["store.checkpoint_puts_per_job"] = float64(cpN) / float64(totalJobs)
		}
	}
	if rr != nil && len(rr.base) > 0 {
		var over, late []float64
		gets, compared, hits := 0.0, 0.0, 0.0
		for _, s := range rr.base {
			late = append(late, s.LateMS)
			if s.Hit {
				hits++
			}
			if s.Compared {
				over = append(over, s.SvcMS-s.InprocMS)
				gets += float64(s.Gets)
				compared++
			}
		}
		out["service.http_overhead_p50_ms"] = median(over)
		if compared > 0 {
			out["store.gets_per_recommend"] = gets / compared
		}
		out["retrieve.hit_frac"] = hits / float64(len(rr.base))
		out["gen.late_p99_ms"] = quantile(late, 0.99)
		lat := make([]float64, len(rr.base))
		for i, x := range rr.base {
			lat[i] = x.LatMS
		}
		out["recommend.p90_ms"] = quantile(lat, 0.90)
		out["recommend.p99_ms"] = quantile(lat, 0.99)
		out["recommend.max_rps"] = rr.maxRPS
	}
	return out
}

// runAll runs every workload, untraced and traced, each in its own process,
// and prints one table.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(unitName))
	for n := range unitName {
		names = append(names, n)
	}
	sort.Strings(names)
	results := map[string]result{}
	for _, w := range names {
		for _, tr := range []int{0, 1} {
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(o.seed),
				"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(tr), "--out", o.out)
			var stdout bytes.Buffer
			cmd.Stdout = io.MultiWriter(&stdout, os.Stderr)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace=%d: %w", w, tr, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s trace=%d: %w", w, tr, err)
			}
			results[fmt.Sprintf("%s/%d", w, tr)] = r
		}
	}
	fmt.Printf("%-30s", "metric")
	for _, w := range names {
		fmt.Printf(" %14s", w)
	}
	fmt.Println()
	for _, tr := range []int{0, 1} {
		specs := endToEnd
		if tr == 1 {
			specs = perLayer()
		}
		for _, s := range specs {
			fmt.Printf("%-30s", s.Name+" ("+s.Unit+")")
			for _, w := range names {
				fmt.Printf(" %14.6g", results[fmt.Sprintf("%s/%d", w, tr)].Metrics[s.Name].Value)
			}
			fmt.Println()
		}
	}
	allOK := true
	for k, r := range results {
		if !r.Correct {
			allOK = false
			fmt.Printf("%s: incorrect (%d of %d failed)\n", k, r.Failed, r.Attempted)
		}
	}
	if !allOK {
		return fmt.Errorf("some runs failed their output checks")
	}
	return nil
}
