package service

import (
	"reflect"
	"testing"

	"locat/internal/conf"
	"locat/internal/core"
)

// priorEntry is a history entry holding one default-configuration
// observation per latency in secs, stored under fp.
func priorEntry(fp Fingerprint, jobID string, created int64, secs ...float64) Entry {
	def := JobSpec{}.cluster().Space().Default()
	e := Entry{Fingerprint: fp, JobID: jobID, CreatedUnix: created, TargetGB: 100}
	for _, s := range secs {
		e.Obs = append(e.Obs, Observation{Params: append([]float64(nil), def...), DataGB: 100, Sec: s})
	}
	return e
}

func priorSecs(p *core.Prior) []float64 {
	var out []float64
	for _, o := range p.Obs {
		out = append(out, o.Sec)
	}
	return out
}

func TestPriorFrom(t *testing.T) {
	space := JobSpec{}.cluster().Space()
	fp := Fingerprint{Cluster: "arm", Benchmark: "TPC-H", SizeBucket: 7, Techniques: "qid"}
	name0, name1 := conf.Params()[0].Name, conf.Params()[1].Name

	plain := priorEntry(fp, "plain", 1, 10, 11)
	sens := priorEntry(fp, "sens", 2, 20)
	sens.Sensitive = []string{"q1"}
	both := priorEntry(fp, "both", 3, 30)
	both.Sensitive = []string{"q9"}
	both.Important = []string{name1, "no.such.param", name0}
	foreign := priorEntry(fp, "foreign", 4)
	foreign.Obs = []Observation{{Params: []float64{1, 2}, DataGB: 100, Sec: 99}}
	entries := []Entry{plain, foreign, sens, both}

	// Observations follow entries; the foreign-table one is skipped.
	p := priorFrom(entries, []Entry{both, sens, plain}, 100, space)
	if got, want := priorSecs(p), []float64{10, 11, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("prior observations %v, want %v", got, want)
	}
	// Both artifacts come from the first byArtifact entry that has them.
	if !reflect.DeepEqual(p.Sensitive, []string{"q9"}) || !reflect.DeepEqual(p.Important, []int{1, 0}) {
		t.Fatalf("artifacts sensitive=%v important=%v, want [q9] [1 0]", p.Sensitive, p.Important)
	}
	p = priorFrom(entries, []Entry{plain, sens, both}, 100, space)
	if !reflect.DeepEqual(p.Sensitive, []string{"q1"}) || !reflect.DeepEqual(p.Important, []int{1, 0}) {
		t.Fatalf("artifacts sensitive=%v important=%v, want [q1] [1 0]", p.Sensitive, p.Important)
	}

	if p := priorFrom([]Entry{foreign}, []Entry{foreign}, 100, space); p != nil {
		t.Fatalf("prior from unusable observations = %+v, want nil", p)
	}
	if p := priorFrom(nil, nil, 100, space); p != nil {
		t.Fatalf("prior from no entries = %+v, want nil", p)
	}
}

// TestRetrievePriorArtifactOrder pins the fingerprint path's artifact
// choice: the newest entry in the job's own size bucket wins over older
// same-bucket entries and over newer neighbor-bucket ones, while
// observations keep the store's read order.
func TestRetrievePriorArtifactOrder(t *testing.T) {
	spec := quickSpec(100, 1)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	j := &job{id: "job-x", spec: spec, fp: NewFingerprint(spec)}
	nb := j.fp.Neighbors()[0]

	store := NewMemStore()
	old := priorEntry(j.fp, "old", 1, 10)
	old.Sensitive = []string{"old"}
	newer := priorEntry(j.fp, "newer", 2, 20)
	newer.Sensitive = []string{"newer"}
	neighbor := priorEntry(nb, "neighbor", 3, 30)
	neighbor.Sensitive = []string{"neighbor"}
	for _, e := range []Entry{neighbor, old, newer} {
		if err := store.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	s := &Service{store: store}
	p := s.retrievePrior(j, j.spec.cluster().Space())
	if got, want := priorSecs(p), []float64{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("prior observations %v, want %v", got, want)
	}
	if !reflect.DeepEqual(p.Sensitive, []string{"newer"}) {
		t.Fatalf("sensitive queries %v, want the newest same-bucket entry's", p.Sensitive)
	}
}
