package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// getBody fetches url and returns the raw response body, failing unless the
// status is 200.
func getBody(t *testing.T, client *http.Client, url string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d; body %s", url, resp.StatusCode, data)
	}
	return data
}

// clusterSecRe matches the cluster_sec member of an indented JobResult.
var clusterSecRe = regexp.MustCompile(`"cluster_sec": [-+.0-9eE]+`)

// checkClusterSec checks that an encoded result charges cluster_sec equal to
// overhead_sec within a relative 1e-9. The cluster tally sums runs in the
// order they finish, so with parallel sample runs its last bits depend on
// scheduling; overhead_sec is summed in run order and stays exact.
func checkClusterSec(t *testing.T, name string, got []byte) {
	t.Helper()
	var r struct {
		OverheadSec float64 `json:"overhead_sec"`
		ClusterSec  float64 `json:"cluster_sec"`
	}
	if err := json.Unmarshal(got, &r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if math.Abs(r.ClusterSec-r.OverheadSec) > 1e-9*math.Abs(r.OverheadSec) {
		t.Fatalf("%s: cluster_sec %v, overhead_sec %v", name, r.ClusterSec, r.OverheadSec)
	}
	if n := len(clusterSecRe.FindAll(got, -1)); n != 1 {
		t.Fatalf("%s: %d cluster_sec members, want 1", name, n)
	}
}

// checkGolden compares got with the committed file, or rewrites the file
// when LOCAT_REGEN is set. cluster_sec is checked by checkClusterSec and then
// takes the golden's bytes; every other byte must match exactly.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	checkClusterSec(t, name, got)
	path := filepath.Join("testdata", "wire", name)
	if os.Getenv("LOCAT_REGEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with LOCAT_REGEN=1 go test -run TestResultWireGolden ./internal/service/)", err)
	}
	if m := clusterSecRe.Find(want); m != nil {
		got = clusterSecRe.ReplaceAllLiteral(got, m)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: wire bytes changed\n got: %s\nwant: %s", name, got, want)
	}
}

// TestResultWireGolden pins the exact JSON bytes — key order, the schema
// stamp, omitted empty fields — of a finished job's result as served by
// GET /v1/jobs/{id}/result and as embedded in GET /v1/jobs/{id}. The job is
// a deterministic simulator session, so every number is reproducible.
func TestResultWireGolden(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	var sub map[string]string
	doJSON(t, client, "POST", srv.URL+"/v1/jobs", quickSpec(100, 1), http.StatusAccepted, &sub)
	if st := waitDone(t, client, srv.URL, sub["id"]); st.State != StateSucceeded {
		t.Fatalf("job %s: %s (%s)", sub["id"], st.State, st.Error)
	}

	checkGolden(t, "result.json", getBody(t, client, srv.URL+"/v1/jobs/"+sub["id"]+"/result"))

	var status map[string]json.RawMessage
	if err := json.Unmarshal(getBody(t, client, srv.URL+"/v1/jobs/"+sub["id"]), &status); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "status_result.json", status["result"])
}
