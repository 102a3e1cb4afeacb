package main

import (
	"math"
	"math/rand"
	"time"

	"locat/internal/baselines"
	"locat/internal/conf"
	"locat/internal/gp"
	"locat/internal/mat"
	"locat/internal/ml"
	"locat/internal/runner"
	"locat/internal/service/retrieve"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// Probes are timed direct calls into single layers, with inputs drawn from
// the seed at the sizes a paper-budget session reaches: a GP over
// probeN observations of every knob plus the data-size feature, and 512
// candidates per prediction batch (the EI scoring block).
const (
	probeN     = 60
	probeCands = 512
	cholN      = 90 // a phase-2 training set: 30 phase-1 + 60 search runs
)

// timeMedian calls fn reps times and returns the median duration in
// seconds.
func timeMedian(reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = secs(time.Since(t))
	}
	return median(d)
}

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
	}
	return x
}

// smoothTargets gives the probe GP a target with structure to fit.
func smoothTargets(x [][]float64) []float64 {
	y := make([]float64, len(x))
	for i, r := range x {
		for j, v := range r {
			y[i] += math.Sin(3*v+float64(j)) / float64(j+1)
		}
	}
	return y
}

// layerProbes runs every probe and returns its per-layer metrics.
func layerProbes(seed int64, index *retrieve.Index) map[string]float64 {
	rng := rand.New(rand.NewSource(seed*49979687 + 5))
	out := map[string]float64{}
	d := conf.NumParams + 1

	x := randRows(rng, probeN, d)
	y := smoothTargets(x)
	var g *gp.GP
	out["gp.fit_ms"] = 1000 * timeMedian(21, func() {
		var err error
		if g, err = gp.Fit(x, y, gp.DefaultHyper()); err != nil {
			panic(err) // a fixed well-conditioned input cannot fail to fit
		}
	})
	cands := randRows(rng, probeCands, d)
	var ws gp.PredictWorkspace
	out["gp.predict_batch_ms"] = 1000 * timeMedian(21, func() { g.PredictBatch(cands, &ws) })
	out["gp.sample_hyper_ms"] = 1000 * timeMedian(5, func() {
		ts, err := gp.NewTrainSet(x, y, 0)
		if err != nil {
			panic(err)
		}
		ts.SampleHyper(5, rand.New(rand.NewSource(seed)), 0)
	})

	xc := randRows(rng, cholN, d)
	k := mat.NewDense(cholN, cholN, nil)
	for i := range xc {
		for j := range xc {
			s := 0.0
			for f := range xc[i] {
				dv := xc[i][f] - xc[j][f]
				s += dv * dv
			}
			v := math.Exp(-s / 2)
			if i == j {
				v += 1e-3
			}
			k.Set(i, j, v)
		}
	}
	out["mat.cholesky_ms"] = 1000 * timeMedian(41, func() {
		if _, err := mat.NewCholesky(k); err != nil {
			panic(err)
		}
	})

	// The simulator and the runner stack the service puts over it.
	app := workloads.TPCDS()
	cl := sparksim.ARM()
	sim := sparksim.New(cl, seed)
	cfgs := make([]conf.Config, 64)
	for i := range cfgs {
		cfgs[i] = cl.Space().Random(rng)
	}
	out["sparksim.run_app_us"] = 1e6 * timeMedian(201, func() {
		sim.RunAppAt(uint64(rng.Intn(1000)), app, cfgs[rng.Intn(len(cfgs))], 300)
	})
	bare := runner.Runner(runner.NewSim(sim))
	var tally runner.Tally
	stack := runner.NewCache(runner.Observe(bare, &tally), nil, func(runner.TraceEntry) {})
	diffs := make([]float64, 201)
	for i := range diffs {
		c, idx := cfgs[i%len(cfgs)], uint64(i)
		t0 := time.Now()
		bare.RunAppAt(idx, app, c, 300)
		t1 := time.Now()
		stack.RunAppAt(idx, app, c, 300)
		t2 := time.Now()
		diffs[i] = secs(t2.Sub(t1)) - secs(t1.Sub(t0))
	}
	out["runner.stack_overhead_us"] = 1e6 * median(diffs)

	xm := randRows(rng, 64, conf.NumParams)
	ym := smoothTargets(xm)
	out["ml.gbrt_fit_ms"] = 1000 * timeMedian(5, func() {
		if err := ml.NewGBRT(ml.GBRTOptions{}).Fit(xm, ym); err != nil {
			panic(err)
		}
	})

	// The four SOTA tuners at the quick-suite budgets, on one problem.
	tpch := workloads.TPCH()
	for name, t := range map[string]baselines.Tuner{
		"tuneful": &baselines.Tuneful{TopK: 6, BOIter: 24},
		"dac":     &baselines.DAC{TrainRuns: 32, Generations: 8, Population: 16, Validate: 5},
		"gborl":   &baselines.GBORL{MemProbes: 10, RLSteps: 44, Epsilon: 0.25},
		"qtune":   &baselines.QTune{Generations: 8, Episodes: 10, EliteFrac: 0.25},
	} {
		out["baselines."+name+"_s"] = timeMedian(3, func() {
			r := runner.NewSim(sparksim.New(cl, seed))
			if _, err := t.Tune(r, tpch, 100, seed+7); err != nil {
				panic(err)
			}
		})
	}

	if items := index.Items(); len(items) > 0 {
		out["retrieve.nearest_p50_us"] = 1e6 * timeMedian(501, func() {
			base := items[rng.Intn(len(items))].Vec
			q := make([]float64, len(base))
			for i, v := range base {
				q[i] = v + 0.05*rng.NormFloat64()
			}
			index.Nearest(q, 5, 0.75)
		})
	}
	return out
}
