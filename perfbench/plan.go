package main

import (
	"math"
	"math/rand"

	"locat"
)

// Every input the benchmark feeds the system is generated here from the
// run's seed, so the same seed always produces the same sessions, jobs and
// requests.

// combo is one (cluster, benchmark) pair of the paper's evaluation grid.
type combo struct {
	Cluster   string
	Benchmark string
}

// grid returns all ten (cluster, benchmark) pairs in a fixed order.
func grid() []combo {
	var out []combo
	for _, cl := range locat.Clusters() {
		for _, b := range locat.Benchmarks() {
			out = append(out, combo{cl, b})
		}
	}
	return out
}

// shuffledGrid returns the grid in an order drawn from rng. Plans walk the
// grid block by block, so every prefix of a plan is balanced across
// clusters and benchmarks whatever the seed.
func shuffledGrid(rng *rand.Rand) []combo {
	g := grid()
	rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	return g
}

// sizeGB draws a data size in [lo, hi] GB, rounded to 10 GB.
func sizeGB(rng *rand.Rand, lo, hi float64) float64 {
	return math.Round((lo+rng.Float64()*(hi-lo))/10) * 10
}

// session is one tune-cold session.
type session struct {
	combo
	GB   float64
	Seed int64
	// Grow, when set, gives the session a growing Schedule: the data size
	// climbs from half the target to the target over the first 40 runs, so
	// the datasize-aware GP transfers observations across sizes.
	Grow bool
}

func (s session) schedule() func(run int) float64 {
	if !s.Grow {
		return nil
	}
	gb := s.GB
	return func(run int) float64 {
		f := math.Min(1, float64(run)/40)
		return math.Round(gb * (0.5 + 0.5*f))
	}
}

// coldCenter is the data size each (cluster, benchmark) pair is tuned at,
// spreading the grid over 100–500 GB. Fixing the size per pair keeps every
// block of ten sessions the same mix of short and long sessions whatever the
// seed; the seed moves each size by up to 10%.
var coldCenter = map[combo]float64{
	{"arm", "TPC-DS"}: 500, {"arm", "TPC-H"}: 500, {"arm", "Join"}: 300, {"arm", "Scan"}: 300, {"arm", "Aggregation"}: 400,
	{"x86", "TPC-DS"}: 300, {"x86", "TPC-H"}: 300, {"x86", "Join"}: 400, {"x86", "Scan"}: 100, {"x86", "Aggregation"}: 300,
}

// coldGrowing is how many sessions of each block tune under a growing
// Schedule.
const coldGrowing = 3

// coldBlock returns block b of the seed's tune-cold sequence: every
// (cluster, benchmark) pair once, in a seeded order, at its pair's size
// moved by up to 10%, with coldGrowing seeded sessions on a growing
// schedule.
func coldBlock(seed int64, b int) []session {
	rng := rand.New(rand.NewSource(seed*7919 + int64(b)*104723 + 1))
	var out []session
	for _, c := range shuffledGrid(rng) {
		center := coldCenter[c]
		out = append(out, session{combo: c, GB: sizeGB(rng, 0.9*center, 1.1*center), Seed: 1 + rng.Int63n(1<<30)})
	}
	for _, i := range rng.Perm(len(out))[:coldGrowing] {
		out[i].Grow = true
	}
	return out
}

// seedJob is one cold session the serve set-up runs to fill the history
// store.
type seedJob struct {
	combo
	GB   float64
	Seed int64
}

// storePlan returns the cold sessions that seed the history store: every
// (cluster, benchmark) pair once, at its pair's size moved by up to 10%.
func storePlan(seed int64) []seedJob {
	rng := rand.New(rand.NewSource(seed*104729 + 2))
	var out []seedJob
	for _, c := range shuffledGrid(rng) {
		center := coldCenter[c]
		out = append(out, seedJob{combo: c, GB: sizeGB(rng, 0.9*center, 1.1*center), Seed: 1 + rng.Int63n(1<<30)})
	}
	return out
}

// jobPlan returns the first n warm-startable jobs of the serve-mix writer,
// block by block: each block holds every seeded (cluster, benchmark) pair
// once, in a seeded order, at up to 15% from the seeded session's size, so
// every job finds history to warm-start from.
func jobPlan(seed int64, store []seedJob, n int) []seedJob {
	rng := rand.New(rand.NewSource(seed*15485863 + 3))
	var out []seedJob
	for len(out) < n {
		order := rng.Perm(len(store))
		for _, i := range order {
			base := store[i]
			gb := sizeGB(rng, 0.85*base.GB, 1.15*base.GB)
			out = append(out, seedJob{combo: base.combo, GB: gb, Seed: 1 + rng.Int63n(1<<30)})
		}
	}
	return out[:n]
}

// readPlan returns n recommendation requests spread over the whole grid.
func readPlan(seed int64, n int) []seedJob {
	rng := rand.New(rand.NewSource(seed*32452843 + 4))
	out := make([]seedJob, n)
	g := grid()
	for i := range out {
		out[i] = seedJob{combo: g[rng.Intn(len(g))], GB: sizeGB(rng, 100, 500)}
	}
	return out
}
