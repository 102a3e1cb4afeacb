package locat_test

import (
	"os"
	"path/filepath"
	"testing"

	"locat"
)

// testdata/history-seed is a committed history store: two finished quick
// TPC-H sessions (100 and 140 GB) plus their persisted k-NN index, produced
// by a deterministic service run on the simulator. CI serves it with
// locat-serve and asserts that POST /v1/recommend answers from retrieval
// alone — a hit with zero executed runs.
//
// Regenerate after an intentional behavior change with:
//
//	LOCAT_REGEN=1 go test -run TestCommittedHistorySeed ./...
const historySeedDir = "testdata/history-seed"

// seedOptions are the pinned session parameters of the history fixture
// (quickTuneOptions at a parameterized size and seed).
func seedOptions(gb float64, seed int64) locat.Options {
	return locat.Options{
		Benchmark:     "TPC-H",
		DataSizeGB:    gb,
		Seed:          seed,
		NQCSA:         10,
		NIICP:         8,
		MaxIterations: 8,
		Quiet:         true,
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("%v (regenerate the fixture with LOCAT_REGEN=1 go test -run TestCommittedHistorySeed ./...)", err)
	}
	for _, de := range entries {
		sp, dp := filepath.Join(src, de.Name()), filepath.Join(dst, de.Name())
		if de.IsDir() {
			if err := os.MkdirAll(dp, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommittedHistorySeedRecommend pins the zero-execution path end to end:
// the committed store answers a 120 GB request from its two stored sessions
// with a confident hit, without a tuning service, worker pool or backend in
// sight.
func TestCommittedHistorySeedRecommend(t *testing.T) {
	if regen() {
		if err := os.RemoveAll(historySeedDir); err != nil {
			t.Fatal(err)
		}
		svc, err := locat.NewService(locat.ServiceOptions{Workers: 1, HistoryDir: historySeedDir, Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, gb := range []float64{100, 140} {
			id, err := svc.Submit(seedOptions(gb, int64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Result(id); err != nil {
				t.Fatal(err)
			}
		}
		svc.Close()
		t.Logf("regenerated %s", historySeedDir)
	}

	// Recommend from a copy: retrieval is read-only in spirit, but a stale
	// index would be rewritten in place, and a test must never dirty the
	// committed fixture.
	dir := t.TempDir()
	copyTree(t, historySeedDir, dir)
	rec, err := locat.RecommendFromHistory(dir, seedOptions(120, 9), locat.RecommendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != "hit" || len(rec.Neighbors) != 2 {
		t.Fatalf("seeded recommend: outcome %q with %d neighbors (confidence %.2f)",
			rec.Outcome, len(rec.Neighbors), rec.Confidence)
	}
	if len(rec.BestParams) == 0 || rec.SparkConf == "" || rec.EstimatedSec <= 0 {
		t.Fatalf("hit served no configuration: %+v", rec)
	}
	// Distances are deterministic functions of the committed entries and
	// arrive nearest first. (The 100 GB session wins despite 140 being
	// size-closer: the warm-started 140 GB session ran fewer full
	// applications, and the observation-deficit dimension prices that in.)
	if rec.Neighbors[0].Distance > rec.Neighbors[1].Distance {
		t.Fatalf("neighbors not nearest-first: %+v", rec.Neighbors)
	}
}
