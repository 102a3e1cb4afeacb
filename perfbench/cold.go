package main

import (
	"fmt"
	"math"
	"time"

	"locat"
	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// unit is one finished unit of work — a tune-cold session, a paper-quick
// pass or a serve-mix job — with the deterministic figures the benchmark
// checks across runs.
type unit struct {
	Name    string
	WallS   float64
	Cluster float64 // simulated cluster seconds spent tuning
	Tuned   float64 // tuned noiseless latency, or the pass's final cost
	Runs    int64
	OK      bool
	Why     string
	Layers  map[string]float64
}

// same reports whether two runs of one unit produced bit-identical
// deterministic figures.
func (u unit) same(v unit) bool {
	return u.Cluster == v.Cluster && u.Tuned == v.Tuned && u.Runs == v.Runs
}

func clusterOf(name string) *sparksim.Cluster {
	if name == "x86" {
		return sparksim.X86()
	}
	return sparksim.ARM()
}

// checkSession applies the tune-cold output checks: the configuration is
// complete and valid for the cluster, and it tunes no worse than the
// defaults unless the guardrail fell back to them.
func checkSession(u *unit, cl *sparksim.Cluster, best conf.Config, tuned, def float64, fellBack bool, degraded string) {
	u.OK = true
	switch {
	case len(best) != conf.NumParams:
		u.OK, u.Why = false, fmt.Sprintf("config has %d of %d parameters", len(best), conf.NumParams)
	case cl.Space().Validate(best) != nil:
		u.OK, u.Why = false, "invalid config: "+cl.Space().Validate(best).Error()
	case degraded != "":
		u.OK, u.Why = false, "degraded: "+degraded
	case !fellBack && tuned > def:
		u.OK, u.Why = false, fmt.Sprintf("tuned %.1f s worse than default %.1f s", tuned, def)
	}
}

// coldSession runs one session through the public library call, as a
// library user would.
func coldSession(s session) unit {
	u := unit{Name: fmt.Sprintf("%s/%s/%.0fGB", s.Cluster, s.Benchmark, s.GB)}
	start := time.Now()
	res, err := locat.Tune(locat.Options{
		Cluster: s.Cluster, Benchmark: s.Benchmark, DataSizeGB: s.GB,
		Schedule: s.schedule(), Seed: s.Seed, Quiet: true,
	})
	u.WallS = secs(time.Since(start))
	if err != nil {
		u.Why = err.Error()
		return u
	}
	u.Cluster, u.Tuned, u.Runs = res.OverheadSeconds, res.TunedSeconds, int64(res.Runs)
	best := make(conf.Config, 0, conf.NumParams)
	for _, p := range conf.Params() {
		v, ok := res.BestParams[p.Name]
		if !ok {
			break
		}
		best = append(best, v)
	}
	checkSession(&u, clusterOf(s.Cluster), best, res.TunedSeconds, res.DefaultSeconds, res.FellBack, res.Degraded)
	return u
}

// coldSessionTraced runs the same session through core with a span tracer
// and a timing runner — the same construction locat.Tune makes, so the
// session must reproduce the untraced one bit for bit.
func coldSessionTraced(s session, rec *recorder, trace string) unit {
	u := unit{Name: fmt.Sprintf("%s/%s/%.0fGB", s.Cluster, s.Benchmark, s.GB)}
	start := time.Now()
	cl := clusterOf(s.Cluster)
	app, err := workloads.ByName(s.Benchmark)
	if err != nil {
		u.Why = err.Error()
		return u
	}
	factory, err := runner.ParseSpec("")
	if err != nil {
		u.Why = err.Error()
		return u
	}
	defer factory.Close()
	raw, err := factory.New(cl, s.Seed, "tune")
	if err != nil {
		u.Why = err.Error()
		return u
	}
	root := rec.reserve()
	tr := newSessionTracer(rec, trace, root)
	run := &timingRunner{inner: raw, tr: tr}
	opts := core.DefaultOptions()
	opts.Seed = s.Seed
	opts.DataSchedule = s.schedule()
	opts.Tracer = tr
	rep, err := core.New(run, app, opts).Tune(s.GB)
	if err == nil && rep.Degraded == "" {
		err = runner.BackendErr(run)
	}
	if err != nil {
		u.Why = err.Error()
		return u
	}
	def := run.NoiselessAppTime(app, cl.Space().Default(), s.GB)
	end := time.Now()
	rec.put(span{Trace: trace, ID: root, Name: "session", Start: rec.at(start), End: rec.at(end)})
	u.WallS = secs(end.Sub(start))
	u.Cluster, u.Tuned, u.Runs = rep.OverheadSec, rep.TunedSec, int64(rep.Evaluations())
	checkSession(&u, cl, rep.Best, rep.TunedSec, def, rep.FellBack, rep.Degraded)
	var mine []span
	for _, sp := range rec.snapshot() {
		if sp.Trace == trace {
			mine = append(mine, sp)
		}
	}
	u.Layers = unitLayers(mine)
	return u
}

// coldSecondsPerBlock is how many seconds of --seconds one block of ten
// sessions stands for: a run measures ceil(seconds / coldSecondsPerBlock)
// whole blocks, about 17 s each on a 2-vCPU VM. A median over twenty
// sessions, not ten, is what keeps session_p50_s inside its bound from one
// run to the next.
const coldSecondsPerBlock = 10

// coldLoop runs the first ceil(seconds / coldSecondsPerBlock) blocks of the
// seed's session sequence back to back, so every run with the same seed and
// --seconds measures the same sessions. m, when set, takes a reference
// sample before the first session and after each one.
func coldLoop(seed int64, seconds float64, rec *recorder, m *speedMeter) []unit {
	var out []unit
	blocks := max(1, int(math.Ceil(seconds/coldSecondsPerBlock)))
	m.mark()
	for b := 0; b < blocks; b++ {
		for i, s := range coldBlock(seed, b) {
			if rec == nil {
				out = append(out, coldSession(s))
			} else {
				out = append(out, coldSessionTraced(s, rec, fmt.Sprintf("session-%d-%d", b, i)))
			}
			m.mark()
		}
	}
	return out
}
