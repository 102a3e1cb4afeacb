// Warm-start service demo: run the tuning service in-process, tune TPC-H
// at 100 GB cold, then tune the neighboring 140 GB size and watch the
// second session warm-start from the history store — reusing the first
// session's observations, sensitive queries and important parameters — at a
// fraction of the optimization time.
//
//	go run ./examples/warm-start-service
//	go run ./examples/warm-start-service -quick -backend replay=testdata/warmstart-service.trace.gz
package main

import (
	"flag"
	"fmt"
	"log"

	"locat"
)

func main() {
	var (
		backend = flag.String("backend", "", "execution backend: sim (default), record=PATH, replay=PATH, sparkrest=URL")
		quick   = flag.Bool("quick", false, "reduced budgets for a fast pass")
	)
	flag.Parse()

	svc, err := locat.NewService(locat.ServiceOptions{Workers: 2, Quiet: true, Backend: *backend})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	tune := func(gb float64, seed int64) *locat.Result {
		o := locat.Options{
			Benchmark:  "TPC-H",
			DataSizeGB: gb,
			Seed:       seed,
		}
		if *quick {
			o.NQCSA, o.NIICP, o.MaxIterations = 10, 8, 8
		}
		id, err := svc.Submit(o)
		if err != nil {
			log.Fatal(err)
		}
		res, err := svc.Result(id)
		if err != nil {
			log.Fatal(err)
		}
		kind := "cold"
		if res.WarmStarted {
			kind = "warm"
		}
		fmt.Printf("%s @ %.0f GB (%s): tuned %.0f s (default %.0f s), overhead %.1f h "+
			"(%.1f h sampling + %.1f h search) over %d runs\n",
			id, gb, kind, res.TunedSeconds, res.DefaultSeconds,
			res.OverheadSeconds/3600, res.SamplingSeconds/3600, res.SearchSeconds/3600, res.Runs)
		return res
	}

	fmt.Println("LOCAT tuning service — cross-session warm start")
	cold := tune(100, 1)
	warm := tune(140, 2)

	fmt.Printf("\nThe warm session spent %.1f h of simulated cluster time vs %.1f h cold —\n"+
		"%.0f%% of the optimization cost, because the history store supplied the\n"+
		"phase-1 samples the paper's pipeline would have re-collected.\n",
		warm.OverheadSeconds/3600, cold.OverheadSeconds/3600,
		100*warm.OverheadSeconds/cold.OverheadSeconds)

	hist, err := svc.History()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nHistory store now holds:")
	for _, h := range hist {
		fmt.Printf("  %s  job=%s  target=%.0f GB  obs=%d\n",
			h.Key, h.JobID, h.TargetGB, h.Obs)
	}
}
