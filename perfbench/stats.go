package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func secs(d time.Duration) float64 { return d.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			break
		}
		return kb / 1024
	}
	return math.NaN()
}

// goStats is a snapshot of the Go runtime counters the per-unit runtime
// metrics are deltas of.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64
	totalCPU   float64
}

var goSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	st := goStats{allocBytes: m.TotalAlloc, gcCycles: m.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		st.totalCPU = s[1].Value.Float64()
	}
	return st
}

// goDelta reports allocation MiB and GC cycles per unit and the GC share of
// CPU between two snapshots.
func goDelta(a, b goStats, units int) (allocMB, gcCycles, gcCPUFrac float64) {
	if units < 1 {
		units = 1
	}
	allocMB = float64(b.allocBytes-a.allocBytes) / (1 << 20) / float64(units)
	gcCycles = float64(b.gcCycles-a.gcCycles) / float64(units)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return allocMB, gcCycles, gcCPUFrac
}
