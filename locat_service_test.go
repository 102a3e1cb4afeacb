package locat

import (
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestServiceFacade(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 2, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Cold job.
	o := fastOpts()
	idA, err := svc.Submit(o)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status(idA)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != idA || st.State.Terminal() && st.State != JobState("succeeded") {
		t.Fatalf("early status %+v", st)
	}
	resA, err := svc.Result(idA)
	if err != nil {
		t.Fatal(err)
	}
	if resA.WarmStarted {
		t.Fatal("first job warm")
	}
	if len(resA.BestParams) != 38 || resA.TunedSeconds >= resA.DefaultSeconds {
		t.Fatalf("degenerate result %+v", resA)
	}
	if resA.SamplingSeconds <= 0 || resA.SearchSeconds <= 0 {
		t.Fatal("missing per-phase overhead")
	}
	if resA.SparkConf() == "" {
		t.Fatal("service result cannot render spark-defaults.conf")
	}
	if len(resA.Phases) == 0 {
		t.Fatal("service result missing phase timeline")
	}

	// Neighboring-size job warm-starts from job A's cross-size history (the
	// only entry that exists when it runs), and costs less than the same
	// job run cold: the ColdStart control — submitted afterwards so it
	// cannot feed B an exact-size prior — holds workload, size and seed
	// fixed, so the comparison isn't confounded by the different input size
	// and seed the way comparing against job A would be.
	o2 := fastOpts()
	o2.DataSizeGB = 140
	o2.Seed = 4
	idB, err := svc.Submit(o2)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := svc.Result(idB)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.WarmStarted {
		t.Fatal("neighboring-size job not warm-started")
	}
	oCtl := o2
	oCtl.ColdStart = true
	idCtl, err := svc.Submit(oCtl)
	if err != nil {
		t.Fatal(err)
	}
	resCtl, err := svc.Result(idCtl)
	if err != nil {
		t.Fatal(err)
	}
	if resCtl.WarmStarted {
		t.Fatal("ColdStart control consumed history")
	}
	if resB.OverheadSeconds >= resCtl.OverheadSeconds {
		t.Fatalf("warm overhead %.0f not below the cold control's %.0f",
			resB.OverheadSeconds, resCtl.OverheadSeconds)
	}

	// History and job listing reflect all three sessions (the ColdStart
	// control skips retrieval, not persistence).
	hist, err := svc.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history %+v, want 3 entries", hist)
	}
	jobs := svc.Jobs()
	if len(jobs) != 3 || jobs[0].ID != idA || jobs[1].ID != idB || jobs[2].ID != idCtl {
		t.Fatalf("job listing %+v", jobs)
	}
	for _, j := range jobs {
		if j.State != JobState("succeeded") || j.Fingerprint == "" {
			t.Fatalf("job %+v", j)
		}
	}
}

// TestTuneMatchesServiceJob pins the shared session path: a direct Tune
// call and a cold one-worker service job with the same options run the
// same session and report the same result.
func TestTuneMatchesServiceJob(t *testing.T) {
	o := fastOpts()
	o.Cluster = "x86"
	o.ColdStart = true
	direct, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceOptions{Workers: 1, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := svc.Submit(o)
	if err != nil {
		t.Fatal(err)
	}
	served, err := svc.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"BestParams", served.BestParams, direct.BestParams},
		{"TunedSeconds", served.TunedSeconds, direct.TunedSeconds},
		{"DefaultSeconds", served.DefaultSeconds, direct.DefaultSeconds},
		{"OverheadSeconds", served.OverheadSeconds, direct.OverheadSeconds},
		{"Runs", served.Runs, direct.Runs},
		{"SensitiveQueries", served.SensitiveQueries, direct.SensitiveQueries},
		{"ImportantParams", served.ImportantParams, direct.ImportantParams},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: service job %v, Tune %v", f.name, f.got, f.want)
		}
	}
}

func TestServiceRejectsSchedule(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 1, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	o := fastOpts()
	o.Schedule = func(run int) float64 { return 100 }
	if _, err := svc.Submit(o); err == nil {
		t.Fatal("Schedule accepted by the service")
	}
}

// TestQuietControlsProgressLog verifies the Quiet option actually gates the
// progress logger (it was a documented no-op before the logger existed).
func TestQuietControlsProgressLog(t *testing.T) {
	captureStderr := func(f func()) string {
		old := os.Stderr
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = w
		done := make(chan string)
		go func() {
			data, _ := io.ReadAll(r)
			done <- string(data)
		}()
		f()
		w.Close()
		os.Stderr = old
		return <-done
	}

	o := Options{Benchmark: "Scan", NQCSA: 6, NIICP: 5, MaxIterations: 5, Seed: 9}

	o.Quiet = true
	quiet := captureStderr(func() {
		if _, err := Tune(o); err != nil {
			t.Fatal(err)
		}
	})
	if strings.Contains(quiet, "phase") {
		t.Fatalf("Quiet session logged progress: %q", quiet)
	}

	o.Quiet = false
	loud := captureStderr(func() {
		if _, err := Tune(o); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(loud, "phase 1") || !strings.Contains(loud, "locat:") {
		t.Fatalf("non-Quiet session logged nothing useful: %q", loud)
	}
}
