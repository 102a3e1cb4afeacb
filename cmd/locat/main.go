// Command locat tunes a Spark SQL benchmark on a simulated cluster with the
// LOCAT pipeline and prints the chosen configuration.
//
// Usage:
//
//	locat -bench TPC-H -cluster x86 -size 200
//	locat -bench TPC-DS -size 300 -compare     # also run the four baselines
//	locat -quick -backend record=sess.trace    # record every execution
//	locat -quick -backend replay=sess.trace    # replay it, simulator detached
//	locat -recommend-from ./history -size 120  # zero-execution recommendation
//	                                           # from a locat-serve history dir
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"locat"
)

func main() {
	var (
		bench   = flag.String("bench", "TPC-DS", "benchmark: TPC-DS, TPC-H, Join, Scan, Aggregation")
		cluster = flag.String("cluster", "arm", "cluster: arm or x86")
		size    = flag.Float64("size", 100, "input data size in GB")
		seed    = flag.Int64("seed", 1, "random seed")
		compare = flag.Bool("compare", false, "also tune with the four SOTA baselines")
		quick   = flag.Bool("quick", false, "reduced budgets for a fast demo")
		quiet   = flag.Bool("quiet", false, "suppress the progress log on stderr")
		par     = flag.Int("parallel", 0, "concurrent execution slots for sample collection (0 = all cores, 1 = serial; identical results on the simulator)")
		backend = flag.String("backend", "", "execution backend: sim (default), record=PATH, replay=PATH[,miss=nearest[,tol=T]], sparkrest=URL")
		out     = flag.String("o", "", "write the tuned configuration to this spark-defaults.conf file")
		recFrom = flag.String("recommend-from", "", "serve a zero-execution recommendation from this locat-serve history directory instead of tuning")
	)
	flag.Parse()

	o := locat.Options{
		Cluster:     *cluster,
		Benchmark:   *bench,
		DataSizeGB:  *size,
		Seed:        *seed,
		Quiet:       *quiet,
		Parallelism: *par,
		Backend:     *backend,
	}
	if *quick {
		o.NQCSA, o.NIICP, o.MaxIterations = 12, 10, 10
	}

	if *recFrom != "" {
		rec, err := locat.RecommendFromHistory(*recFrom, o, locat.RecommendOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "locat:", err)
			os.Exit(1)
		}
		fmt.Printf("LOCAT recommendation for %s at %.0f GB on the %s cluster: %s (confidence %.2f)\n",
			*bench, *size, *cluster, rec.Outcome, rec.Confidence)
		if len(rec.Neighbors) == 0 {
			fmt.Println("  no similar past sessions in the history store; run a tuning job first")
			os.Exit(1)
		}
		fmt.Printf("  estimated latency : %8.0f s (distance-weighted over %d neighbors, zero runs)\n",
			rec.EstimatedSec, len(rec.Neighbors))
		for _, n := range rec.Neighbors {
			fmt.Printf("    %-28s dist %.3f weight %.2f tuned %.0f s @ %.0f GB (%d obs)\n",
				n.JobID, n.Distance, n.Weight, n.TunedSec, n.TargetGB, n.Obs)
		}
		if *out != "" {
			if err := os.WriteFile(*out, []byte(rec.SparkConf), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "locat:", err)
				os.Exit(1)
			}
			fmt.Printf("  wrote recommended spark-defaults.conf to %s\n", *out)
		}
		names := make([]string, 0, len(rec.BestParams))
		for n := range rec.BestParams {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("  recommended configuration:")
		for _, n := range names {
			fmt.Printf("    %-58s %g\n", n, rec.BestParams[n])
		}
		return
	}

	res, err := locat.Tune(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locat:", err)
		os.Exit(1)
	}

	fmt.Printf("LOCAT tuned %s at %.0f GB on the %s cluster\n", *bench, *size, *cluster)
	fmt.Printf("  default latency : %8.0f s\n", res.DefaultSeconds)
	fmt.Printf("  tuned latency   : %8.0f s  (%.2fx faster)\n",
		res.TunedSeconds, res.DefaultSeconds/res.TunedSeconds)
	fmt.Printf("  tuning overhead : %8.1f h over %d runs (wall: %s)\n",
		res.OverheadSeconds/3600, res.Runs, res.Elapsed.Round(1e6))
	fmt.Printf("    sampling      : %8.1f h   search: %.1f h\n",
		res.SamplingSeconds/3600, res.SearchSeconds/3600)
	if res.SensitiveQueries != nil {
		fmt.Printf("  QCSA kept %d configuration-sensitive queries\n", len(res.SensitiveQueries))
	}
	if res.ImportantParams != nil {
		fmt.Printf("  IICP important parameters (%d):\n", len(res.ImportantParams))
		for _, p := range res.ImportantParams {
			fmt.Printf("    %-55s = %g\n", p, res.BestParams[p])
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(res.SparkConf()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "locat:", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote tuned spark-defaults.conf to %s\n", *out)
	}
	fmt.Println("  full tuned configuration:")
	names := make([]string, 0, len(res.BestParams))
	for n := range res.BestParams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("    %-58s %g\n", n, res.BestParams[n])
	}

	if *compare {
		fmt.Println("\nBaseline comparison (same problem):")
		rs, err := locat.CompareBaselines(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "locat:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-8s %12s %14s %6s\n", "tuner", "tuned (s)", "overhead (h)", "runs")
		fmt.Printf("  %-8s %12.0f %14.1f %6d\n", "LOCAT", res.TunedSeconds, res.OverheadSeconds/3600, res.Runs)
		for _, r := range rs {
			fmt.Printf("  %-8s %12.0f %14.1f %6d\n", r.Tuner, r.TunedSeconds, r.OverheadSeconds/3600, r.Runs)
		}
	}
}
