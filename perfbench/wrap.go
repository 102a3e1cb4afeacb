package main

import (
	"sync"
	"time"

	"locat/internal/conf"
	"locat/internal/runner"
	"locat/internal/service"
)

// timingRunner times every call a traced session makes into its execution
// backend, recording one span per call under the tracer's innermost open
// span. It forwards the optional backend interfaces — BatchRunner,
// Reporter and Faulty — so wrapping changes no behavior: the batch path
// stays native, capability negotiation sees the inner backend, and a
// backend failure still reaches runner.BackendErr.
type timingRunner struct {
	inner runner.Runner
	tr    *sessionTracer
}

var (
	_ runner.BatchRunner = (*timingRunner)(nil)
	_ runner.Reporter    = (*timingRunner)(nil)
	_ runner.Faulty      = (*timingRunner)(nil)
)

func (t *timingRunner) record(name string, start time.Time, runs int) {
	t.tr.rec.addRuns(t.tr.trace, t.tr.current(), name, start, time.Now(), int64(runs))
}

func (t *timingRunner) Capabilities() runner.Capabilities {
	caps := runner.CapsOf(t.inner)
	caps.NativeBatch = true
	return caps
}

func (t *timingRunner) Err() error { return runner.BackendErr(t.inner) }

func (t *timingRunner) Space() *conf.Space { return t.inner.Space() }

func (t *timingRunner) ReserveRuns(n int) uint64 { return t.inner.ReserveRuns(n) }

func (t *timingRunner) RunApp(app *runner.Application, c conf.Config, dataGB float64) runner.AppResult {
	start := time.Now()
	res := t.inner.RunApp(app, c, dataGB)
	t.record("runner/run-app", start, 1)
	return res
}

func (t *timingRunner) RunAppAt(idx uint64, app *runner.Application, c conf.Config, dataGB float64) runner.AppResult {
	start := time.Now()
	res := t.inner.RunAppAt(idx, app, c, dataGB)
	t.record("runner/run-app", start, 1)
	return res
}

func (t *timingRunner) RunQuery(q runner.Query, c conf.Config, dataGB float64) runner.QueryResult {
	start := time.Now()
	res := t.inner.RunQuery(q, c, dataGB)
	t.record("runner/run-query", start, 1)
	return res
}

func (t *timingRunner) RunBatch(app *runner.Application, cs []conf.Config, dataGB func(i int) float64, workers int, stop func() bool) ([]runner.AppResult, int) {
	start := time.Now()
	res, done := runner.RunBatch(t.inner, app, cs, dataGB, workers, stop)
	t.record("runner/batch", start, done)
	return res, done
}

func (t *timingRunner) NoiselessAppTime(app *runner.Application, c conf.Config, dataGB float64) float64 {
	start := time.Now()
	v := t.inner.NoiselessAppTime(app, c, dataGB)
	t.record("runner/noiseless", start, 0)
	return v
}

// timingStore times every call the service makes into its history store.
// Besides service.Store it forwards CheckpointStore (without it the service
// silently stops checkpointing), the k-NN index location (without it the
// recommender keeps its index in memory only) and the key cap.
type timingStore struct {
	inner *service.FileStore
	rec   *recorder

	mu     sync.Mutex
	counts map[string]int
	durs   map[string][]float64 // milliseconds per call, by span name
}

var (
	_ service.Store           = (*timingStore)(nil)
	_ service.CheckpointStore = (*timingStore)(nil)
)

func newTimingStore(inner *service.FileStore, rec *recorder) *timingStore {
	return &timingStore{inner: inner, rec: rec, counts: map[string]int{}, durs: map[string][]float64{}}
}

func (s *timingStore) record(name string, start time.Time) {
	end := time.Now()
	s.rec.add("store", 0, name, start, end)
	s.mu.Lock()
	s.counts[name]++
	s.durs[name] = append(s.durs[name], ms(end.Sub(start)))
	s.mu.Unlock()
}

// stats returns the call count and durations (ms) recorded under name.
func (s *timingStore) stats(name string) (int, []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name], append([]float64(nil), s.durs[name]...)
}

func (s *timingStore) Put(e service.Entry) error {
	defer s.record("store/put", time.Now())
	return s.inner.Put(e)
}

func (s *timingStore) Get(key string) ([]service.Entry, error) {
	defer s.record("store/get", time.Now())
	return s.inner.Get(key)
}

func (s *timingStore) Keys() ([]string, error) {
	defer s.record("store/keys", time.Now())
	return s.inner.Keys()
}

func (s *timingStore) PutCheckpoint(cp service.Checkpoint) error {
	defer s.record("store/checkpoint-put", time.Now())
	return s.inner.PutCheckpoint(cp)
}

func (s *timingStore) GetCheckpoint(jobID string) (*service.Checkpoint, error) {
	defer s.record("store/checkpoint-get", time.Now())
	return s.inner.GetCheckpoint(jobID)
}

func (s *timingStore) ListCheckpoints() ([]string, error) {
	defer s.record("store/checkpoint-list", time.Now())
	return s.inner.ListCheckpoints()
}

func (s *timingStore) DeleteCheckpoint(jobID string) error {
	defer s.record("store/checkpoint-delete", time.Now())
	return s.inner.DeleteCheckpoint(jobID)
}

func (s *timingStore) IndexPath() string { return s.inner.IndexPath() }

func (s *timingStore) SetMaxKeys(n int) { s.inner.SetMaxKeys(n) }

// runLog is the service.Config.Observers hook of a traced service: it
// timestamps every execution a job issues, so runs can be attributed to the
// job running at the time (the measured service has one worker).
type runLog struct {
	mu   sync.Mutex
	runs []observedRun
}

type observedRun struct {
	end  time.Time
	wall float64
}

func (l *runLog) ObserveRun(kind string, wallSec, clusterSec float64) {
	l.mu.Lock()
	l.runs = append(l.runs, observedRun{end: time.Now(), wall: wallSec})
	l.mu.Unlock()
}
