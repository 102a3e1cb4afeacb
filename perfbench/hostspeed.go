package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose CPU speed moves by a quarter or
// more from one minute to the next, so a wall time alone measures the host
// as much as the program. Every run therefore takes reference samples
// between its units of work — each a fixed amount of the benchmark's own
// floating-point work, independent of the repository's code — and reports
// its gated times in reference seconds: wall time × refNominalS / the run's
// mean reference sample. On a host running at the reference speed these
// are the wall times; a change to the program moves them, a change of the
// host's speed moves the reference samples as well and cancels out. The
// report prints the wall times next to them.

// refNominalS is the mean reference sample on the reference host, a 2-vCPU
// x86-64 VM.
const refNominalS = 0.06

// refRounds is the work of one reference sample, per worker.
const refRounds = 1500

// refN is the order of the matrix the reference factors.
const refN = 40

// refSample runs the reference work on GOMAXPROCS goroutines — the program
// under test spreads its work over all of them too — and returns the wall
// seconds until all have finished.
func refSample() float64 {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	sink := make([]float64, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink[w] = refWork(refRounds)
		}(w)
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	for _, s := range sink {
		if math.IsNaN(s) {
			panic("perfbench: reference work diverged")
		}
	}
	return d
}

// refWork builds a squared-exponential kernel matrix over fixed points,
// factors it by Cholesky and solves against it, rounds times: the dense
// linear algebra and exp calls of a GP fit. It allocates once, so no
// collection of the program's garbage runs on its account.
func refWork(rounds int) float64 {
	k := make([]float64, refN*refN)
	b := make([]float64, refN)
	acc := 0.0
	for r := 0; r < rounds; r++ {
		ls := 0.5 + float64(r%7)*0.1
		for i := 0; i < refN; i++ {
			xi := float64(i) / refN
			for j := 0; j <= i; j++ {
				d := (xi - float64(j)/refN) / ls
				v := math.Exp(-0.5 * d * d)
				if i == j {
					v += 1e-3
				}
				k[i*refN+j] = v
			}
			b[i] = math.Sin(float64(i + r))
		}
		// In-place Cholesky of the lower triangle.
		for j := 0; j < refN; j++ {
			s := k[j*refN+j]
			for p := 0; p < j; p++ {
				s -= k[j*refN+p] * k[j*refN+p]
			}
			s = math.Sqrt(s)
			k[j*refN+j] = s
			for i := j + 1; i < refN; i++ {
				t := k[i*refN+j]
				for p := 0; p < j; p++ {
					t -= k[i*refN+p] * k[j*refN+p]
				}
				k[i*refN+j] = t / s
			}
		}
		// Forward substitution L y = b.
		for i := 0; i < refN; i++ {
			t := b[i]
			for p := 0; p < i; p++ {
				t -= k[i*refN+p] * b[p]
			}
			b[i] = t / k[i*refN+i]
		}
		acc += b[refN-1]
	}
	return acc
}

// speedMeter records reference samples taken between units of work.
type speedMeter struct {
	samples []float64
}

// mark takes one reference sample; a nil meter takes none.
func (m *speedMeter) mark() {
	if m != nil {
		m.samples = append(m.samples, refSample())
	}
}

// mean returns the mean reference sample, NaN before the first.
func (m *speedMeter) mean() float64 {
	sum := 0.0
	for _, s := range m.samples {
		sum += s
	}
	return sum / float64(len(m.samples))
}

// factor turns the run's wall times into reference times: refNominalS over
// the mean reference sample. The mean over the whole run follows the host's
// speed from one run to the next, where single samples, taken in a fraction
// of a second, would add their own noise to every unit. It is a mean, not a
// median, because the program pays for every stall of the host: a median
// passes over the samples a stall lengthened, and in two runs on a busy
// host the median sample then grew 1.45 times where the units grew 1.8.
func (m *speedMeter) factor() float64 {
	return refNominalS / m.mean()
}
