package main

import (
	"fmt"
	"math"
	"time"

	"locat/internal/experiments"
)

// paperIDs lists the drivers of one paper-quick pass: every registered
// experiment except the two that exercise the serving layer, which
// serve-mix covers.
func paperIDs() []string {
	var out []string
	for _, id := range experiments.IDs() {
		if id != "retrieval" && id != "loadtest" {
			out = append(out, id)
		}
	}
	return out
}

// paperPass regenerates the quick evaluation suite on a fresh session. Its
// layer map holds each driver's wall time and the tuner phases the
// session's own timeline recorded (these include the runner calls and
// resamples nested in them: the experiments package offers no runner
// hook).
func paperPass(seed int64, rec *recorder, trace string) unit {
	u := unit{Name: "pass", Layers: map[string]float64{}}
	start := time.Now()
	s := experiments.NewSession(seed, true)
	var runs int64
	for _, id := range paperIDs() {
		t0 := time.Now()
		tables, err := experiments.Registry[id](s)
		t1 := time.Now()
		rec.add(trace, 0, "experiments/"+id, t0, t1)
		if err != nil {
			u.Why = fmt.Sprintf("%s: %v", id, err)
			return u
		}
		if len(tables) == 0 {
			u.Why = id + ": no tables"
			return u
		}
		n, cs, fc := s.TakeUsage()
		runs += n
		u.Cluster += cs
		u.Tuned += fc
		u.Layers["experiments."+id+"_s"] = secs(t1.Sub(t0))
		for _, p := range s.TakePhases() {
			if m := phaseMetric[p.Name]; m != "" {
				u.Layers[m] += p.WallMS / 1000
			}
			if p.Name == "gp/hyper-resample" {
				u.Layers["gp.resample_s"] += p.WallMS / 1000
			}
		}
	}
	u.Layers["bo.self_s"] = u.Layers["core.phase1_s"] + u.Layers["core.warm_anchors_s"] +
		u.Layers["core.phase2_s"] - u.Layers["gp.resample_s"]
	u.Layers["experiments.runs"] = float64(runs)
	u.Runs = runs
	u.WallS = secs(time.Since(start))
	u.OK = true
	return u
}

// paperSeeds is how many experiment-session seeds a run rotates through:
// pass i regenerates the suite on session seed i mod paperSeeds, so a run's
// passes average over several draws of the suite's randomness while every
// seed still runs at least twice for the repeat check.
const paperSeeds = 3

// paperSecondsPerRound is how many seconds of --seconds one round of
// paperSeeds passes stands for: a run measures ceil(seconds /
// paperSecondsPerRound) rounds, about 5.4 s each on a 2-vCPU VM.
const paperSecondsPerRound = 7

// paperLoop runs whole rounds of passes back to back — pass i on session
// seed i mod paperSeeds — and checks that every pass reproduced the
// deterministic totals of the first pass on the same session seed. m, when
// set, takes a reference sample before the first pass and after each one.
func paperLoop(seed int64, seconds float64, rec *recorder, m *speedMeter) []unit {
	var out []unit
	first := map[int64]unit{}
	passes := paperSeeds * max(1, int(math.Ceil(seconds/paperSecondsPerRound)))
	m.mark()
	for i := 0; i < passes; i++ {
		ss := seed*paperSeeds + int64(i%paperSeeds)
		u := paperPass(ss, rec, fmt.Sprintf("pass-%d", i))
		m.mark()
		if f, ok := first[ss]; u.OK && ok && !u.same(f) {
			u.OK, u.Why = false, fmt.Sprintf("pass totals %v/%v/%d differ from the first pass's %v/%v/%d on session seed %d",
				u.Cluster, u.Tuned, u.Runs, f.Cluster, f.Tuned, f.Runs, ss)
		} else if !ok && u.OK {
			first[ss] = u
		}
		out = append(out, u)
	}
	return out
}
