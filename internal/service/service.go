package service

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/dagp"
	"locat/internal/obs"
	"locat/internal/progress"
	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// Priority is a job's scheduling class. Interactive work (recommend
// refinements, deadline-bounded tuning a user is waiting on) dispatches
// ahead of batch work, and under overload only batch jobs are shed.
type Priority string

// The two priority classes. Batch is the default: a plain tuning job is
// throughput work.
const (
	PriorityInteractive Priority = "interactive"
	PriorityBatch       Priority = "batch"
)

// JobSpec describes one tuning job. It mirrors the tunable subset of the
// public locat.Options and is the wire format of the HTTP submit endpoint.
type JobSpec struct {
	// Tenant attributes the job to a tenant for per-tenant budget
	// enforcement (Config.Tenants). Empty is the anonymous tenant; tenants
	// do not partition the history store — warm-start sharing across
	// tenants is deliberate (same workload, same physics).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the scheduling class: "interactive" dispatches ahead of
	// "batch" (the default) and is never shed under overload.
	Priority Priority `json:"priority,omitempty"`
	// DeadlineSec, when positive, bounds the job's wall-clock session time:
	// past the deadline the session stops at the next evaluation boundary
	// and returns its best-so-far configuration as a Degraded result.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// MaxClusterSec, when positive, bounds the simulated cluster seconds
	// the session may spend tuning — the deterministic twin of DeadlineSec
	// (overhead is part of the tuning trajectory, so the cutoff point is
	// reproducible bit for bit). Exceeding it degrades, like a deadline.
	MaxClusterSec float64 `json:"max_cluster_sec,omitempty"`
	// Cluster is "arm" (default) or "x86".
	Cluster string `json:"cluster,omitempty"`
	// Benchmark is one of locat.Benchmarks(); default "TPC-DS".
	Benchmark string `json:"benchmark,omitempty"`
	// DataSizeGB is the target input size; default 100.
	DataSizeGB float64 `json:"data_size_gb,omitempty"`
	// Seed makes the session reproducible; default 1.
	Seed int64 `json:"seed,omitempty"`
	// NQCSA, NIICP and MaxIterations override the paper's budgets.
	NQCSA         int `json:"n_qcsa,omitempty"`
	NIICP         int `json:"n_iicp,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`
	// DisableQCSA / DisableIICP / DisableDAGP ablate the techniques.
	DisableQCSA bool `json:"disable_qcsa,omitempty"`
	DisableIICP bool `json:"disable_iicp,omitempty"`
	DisableDAGP bool `json:"disable_dagp,omitempty"`
	// ColdStart opts this job out of history retrieval: it runs the full
	// sampling pipeline even when similar past sessions exist.
	ColdStart bool `json:"cold_start,omitempty"`
	// Backend overrides the service's execution backend for this job (an
	// internal/runner spec: "sim", "record=PATH", "replay=PATH", or
	// "sparkrest=URL"). Empty uses the service default.
	Backend string `json:"backend,omitempty"`
}

// Normalize validates the spec and fills in its defaults. It is the one
// validation every tuning entry point shares: Submit, Recommend and the
// public locat.Tune / locat.CompareBaselines.
func (s *JobSpec) Normalize() error {
	if s.Priority == "" {
		s.Priority = PriorityBatch
	}
	if s.Priority != PriorityInteractive && s.Priority != PriorityBatch {
		return fmt.Errorf("service: unknown priority %q (want interactive or batch)", s.Priority)
	}
	if s.DeadlineSec < 0 {
		return errors.New("service: negative deadline")
	}
	if s.MaxClusterSec < 0 {
		return errors.New("service: negative cluster-second budget")
	}
	if s.Cluster == "" {
		s.Cluster = "arm"
	}
	if s.Cluster != "arm" && s.Cluster != "x86" {
		return fmt.Errorf("service: unknown cluster %q (want arm or x86)", s.Cluster)
	}
	if s.Benchmark == "" {
		s.Benchmark = "TPC-DS"
	}
	if _, err := workloads.ByName(s.Benchmark); err != nil {
		return err
	}
	if s.DataSizeGB == 0 {
		s.DataSizeGB = 100
	}
	if s.DataSizeGB < 0 {
		return errors.New("service: negative data size")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if _, err := runner.ParseSpec(s.Backend); err != nil {
		return err
	}
	return nil
}

func (s JobSpec) cluster() *sparksim.Cluster {
	if s.Cluster == "x86" {
		return sparksim.X86()
	}
	return sparksim.ARM()
}

// Resolve returns a normalized spec's simulated cluster and application.
func (s JobSpec) Resolve() (*sparksim.Cluster, *sparksim.Application, error) {
	app, err := workloads.ByName(s.Benchmark)
	if err != nil {
		return nil, nil, err
	}
	return s.cluster(), app, nil
}

// CoreOptions maps the spec's seed, sample budgets and technique switches
// onto the core pipeline's options. Session control — progress logging,
// tracing, cancellation, deadlines and cluster-second budgets — is the
// caller's to add.
func (s JobSpec) CoreOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Seed = s.Seed
	if s.NQCSA > 0 {
		opts.NQCSA = s.NQCSA
	}
	if s.NIICP > 0 {
		opts.NIICP = s.NIICP
	}
	if s.MaxIterations > 0 {
		opts.MaxIter = s.MaxIterations
	}
	opts.UseQCSA = !s.DisableQCSA
	opts.UseIICP = !s.DisableIICP
	opts.UseDAGP = !s.DisableDAGP
	return opts
}

// State is a job's lifecycle position.
type State string

// Job lifecycle states. Terminal states are Succeeded, Failed, Cancelled,
// Shed and Suspended.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateShed marks a queued batch job displaced by an interactive
	// submission under overload: it never ran, by the service's own
	// admission decision rather than the caller's.
	StateShed State = "shed"
	// StateSuspended marks a job parked by a graceful drain: its progress is
	// checkpointed and a restart with Config.Resume requeues it under the
	// same ID. Terminal in this process, not for the job.
	StateSuspended State = "suspended"
)

// Terminal reports whether the state is final in this process.
func (s State) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCancelled, StateShed, StateSuspended:
		return true
	}
	return false
}

// JobResult is the outcome of a finished tuning job.
type JobResult struct {
	// BestConfig is the tuned configuration vector (natural units).
	BestConfig conf.Config `json:"best_config"`
	// BestParams is the same configuration as a property→value map.
	BestParams map[string]float64 `json:"best_params"`
	// TunedSec and DefaultSec are the noiseless latencies under the tuned
	// configuration and the Spark defaults.
	TunedSec   float64 `json:"tuned_sec"`
	DefaultSec float64 `json:"default_sec"`
	// OverheadSec = SamplingSec + SearchSec is the simulated cluster time
	// tuning consumed (the paper's optimization time), split by phase.
	OverheadSec float64 `json:"overhead_sec"`
	SamplingSec float64 `json:"sampling_sec"`
	SearchSec   float64 `json:"search_sec"`
	// FullRuns and RQARuns count executions by kind.
	FullRuns int `json:"full_runs"`
	RQARuns  int `json:"rqa_runs"`
	// WarmStarted reports whether the session consumed history-store
	// observations instead of collecting the full sample set, and
	// PriorObsUsed how many.
	WarmStarted  bool `json:"warm_started"`
	PriorObsUsed int  `json:"prior_obs_used"`
	// SensitiveQueries and ImportantParams are the session's (possibly
	// inherited) QCSA / IICP artifacts.
	SensitiveQueries []string `json:"sensitive_queries,omitempty"`
	ImportantParams  []string `json:"important_params,omitempty"`
	// SparkConf is the tuned configuration rendered in spark-defaults.conf
	// syntax.
	SparkConf string `json:"spark_conf"`
	// Runs and ClusterSec are the execution tally the job's observed backend
	// accumulated: every run the session issued (full apps, single queries,
	// batch members) and the simulated cluster seconds they consumed. Runs
	// served from a resume checkpoint are not re-executed and appear in
	// ResumedRuns instead.
	Runs       int64   `json:"runs"`
	ClusterSec float64 `json:"cluster_sec"`
	// ResumedRuns counts executions served from the job's checkpoint
	// instead of re-executed after a restart.
	ResumedRuns int64 `json:"resumed_runs,omitempty"`
	// Degraded, when non-empty, records that the session was cut short —
	// backend death, an expired deadline, or an exhausted cluster-second
	// budget — and why; the result is the best configuration observed
	// before the cutoff.
	Degraded string `json:"degraded,omitempty"`
	// FellBack reports the session's guardrail replaced the selected
	// configuration with the Spark defaults because the selection evaluated
	// worse.
	FellBack bool `json:"fell_back,omitempty"`
	// SeededFrom is the retrieval provenance of a refine or fallback job:
	// the history neighbors whose observations seeded this session.
	SeededFrom []Neighbor `json:"seeded_from,omitempty"`
}

// JobStatus is the externally visible snapshot of a job. Result is the
// job's own result, the same value Service.Result returns and the HTTP API
// serves; callers must treat it, its maps and its slices as read-only.
type JobStatus struct {
	ID          string     `json:"id"`
	Spec        JobSpec    `json:"spec"`
	Fingerprint string     `json:"fingerprint"`
	State       State      `json:"state"`
	Error       string     `json:"error,omitempty"`
	Submitted   time.Time  `json:"submitted"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

type job struct {
	id        string
	spec      JobSpec
	fp        Fingerprint
	state     State
	err       string
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancelled atomic.Bool
	// suspend asks the running session to park at the next evaluation
	// boundary with its checkpoint intact — the graceful-drain signal, as
	// opposed to cancellation (which discards the job).
	suspend atomic.Bool
	// released records that the job's in-flight slot went back to its
	// tenant (guarded by the service mutex; set exactly once).
	released bool
	done     chan struct{}
	// resume is the checkpoint the job restarts from (nil for fresh jobs):
	// set at startup for jobs interrupted by a process death, and refreshed
	// between in-process retry attempts.
	resume *Checkpoint
	// seed, when non-nil, is the warm-start prior retrieved by the
	// recommendation engine (refine / fallback jobs); seededFrom is its
	// neighbor provenance, surfaced in the result.
	seed       *core.Prior
	seededFrom []Neighbor
	// attempts counts failed attempts already consumed (Config.JobRetries
	// bounds it).
	attempts int
	// timeline is the job's phase-span trace, set when the session starts.
	// *obs.Timeline is internally synchronized, so the trace endpoint can
	// snapshot it while the session is still appending spans.
	timeline *obs.Timeline
}

// Config configures a Service.
type Config struct {
	// Workers is the size of the session worker pool (default 2): the
	// maximum number of tuning sessions running concurrently. Further
	// submissions queue.
	Workers int
	// QueueCap bounds the backlog of queued jobs (default 256); Submit
	// fails once it is full.
	QueueCap int
	// Store is the history store (default: a fresh in-memory store).
	Store Store
	// Backend is the default execution backend of tuning sessions (an
	// internal/runner spec; empty selects the simulator). Jobs may override
	// it per submission. Record-mode backends share one trace sink across
	// all jobs, keyed by job ID, so a whole service run lands in one file;
	// replaying it requires re-submitting the same job sequence.
	Backend string
	// Logf, if non-nil, receives service and per-job progress lines.
	Logf progress.Logf
	// Metrics is the registry the service charges its telemetry to (job
	// state gauges, queue-wait and job-duration histograms, per-run
	// counters). Nil allocates a private registry; pass one to share it
	// with other instrumented components or expose it over HTTP.
	Metrics *obs.Registry
	// Resume requeues jobs whose checkpoints survived a process death: on
	// startup, every checkpoint in the store becomes a queued job under its
	// original ID, and its session serves already-paid runs from the
	// checkpoint instead of re-executing them. Requires a Store implementing
	// CheckpointStore (both built-ins do).
	Resume bool
	// JobRetries bounds the automatic in-process retries of failed jobs
	// (default 0: a failed job stays failed). Retried jobs requeue under the
	// same ID and resume from their checkpoint.
	JobRetries int
	// CheckpointEvery persists a job checkpoint after that many fresh
	// executions (default 8; negative disables checkpointing).
	CheckpointEvery int
	// Chaos, when non-empty, wraps every session backend in deterministic
	// fault injection plus the healing retry/breaker layer (a
	// runner.ParseChaosSpec string, e.g. "drop=0.3,seed=7"). Meant for
	// resilience testing; invalid specs disable chaos with a log line — use
	// the public facade for validated construction.
	Chaos string
	// MaxHistoryKeys caps the distinct fingerprint keys the history store
	// retains (default 1024; negative: unbounded). Beyond the cap the least
	// recently written key is evicted wholesale, so the store and its k-NN
	// index stay bounded on a long-lived service.
	MaxHistoryKeys int
	// Tenants maps tenant names to budgets; the DefaultTenant ("*") entry
	// applies to every unlisted tenant. Nil or absent entries leave tenants
	// unbudgeted. Over-budget submissions are rejected with a *BudgetError
	// (429 + Retry-After over HTTP).
	Tenants map[string]TenantBudget
	// Observers are appended to the per-run observation chain of every
	// session backend (after the job tally and run metrics). Observational
	// only — they cannot alter results; the load-test experiment uses one
	// to charge service-executed runs to its benchmark session.
	Observers []runner.RunObserver
}

// ErrQueueFull rejects a submission against a full job queue — the
// admission-control signal the HTTP layer maps to 429.
var ErrQueueFull = errors.New("service: queue full")

// ErrClosed rejects a submission against a closed service (503 over HTTP).
var ErrClosed = errors.New("service: closed")

// Service is the concurrent tuning-session manager. Submit enqueues jobs
// and returns immediately; a fixed pool of workers drains the queue. Every
// successful session is persisted to the history store, and later sessions
// with a matching or neighboring workload fingerprint warm-start from it.
type Service struct {
	cfg   Config
	store Store

	mu        sync.RWMutex
	jobs      map[string]*job
	order     []string
	seq       int
	closed    bool
	factories map[string]*runner.Factory
	// tenants is the per-tenant budget accounting (lazily populated).
	tenants map[string]*tenantState

	disp *dispatcher
	wg   sync.WaitGroup

	// ready gates /readyz: false until startup resume has requeued the
	// backlog, false again the moment a drain begins.
	ready atomic.Bool
	// now is the admission clock (swapped by rate-limit tests).
	now func() time.Time

	// rec is the zero-execution recommendation engine (k-NN retrieval over
	// the history store).
	rec *Recommender

	metrics *serviceMetrics
	// chaos is the parsed Config.Chaos fault schedule (nil: no injection).
	chaos *runner.ChaosOptions
	// checkpointEvery is the normalized Config.CheckpointEvery (0: disabled).
	checkpointEvery int
}

// New starts a Service with cfg's worker pool.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	// The budgets are read for the service's lifetime; a private copy keeps
	// later edits to the caller's map from racing admission.
	cfg.Tenants = maps.Clone(cfg.Tenants)
	if cfg.MaxHistoryKeys == 0 {
		cfg.MaxHistoryKeys = 1024
	}
	if cfg.MaxHistoryKeys > 0 {
		if capped, ok := cfg.Store.(interface{ SetMaxKeys(int) }); ok {
			capped.SetMaxKeys(cfg.MaxHistoryKeys)
		}
	}
	s := &Service{
		cfg:       cfg,
		store:     cfg.Store,
		jobs:      map[string]*job{},
		factories: map[string]*runner.Factory{},
		tenants:   map[string]*tenantState{},
		disp:      newDispatcher(cfg.QueueCap),
		now:       time.Now,
	}
	s.metrics = newServiceMetrics(cfg.Metrics, s)
	s.rec = NewRecommender(cfg.Store)
	s.rec.logf = cfg.Logf
	switch {
	case cfg.CheckpointEvery == 0:
		s.checkpointEvery = 8
	case cfg.CheckpointEvery > 0:
		s.checkpointEvery = cfg.CheckpointEvery
	}
	if cfg.Chaos != "" {
		chaos, err := runner.ParseChaosSpec(cfg.Chaos)
		if err != nil {
			s.logf("invalid chaos spec: %v; fault injection disabled", err)
		}
		s.chaos = chaos
	}
	if cfg.Resume {
		s.resumeCheckpointed()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
	return s
}

// Ready reports whether the service accepts work: true once startup resume
// has requeued the interrupted backlog, false again the moment a drain
// begins. /readyz serves it as the readiness probe.
func (s *Service) Ready() bool { return s.ready.Load() }

// Hold parks the worker pool without refusing submissions: jobs accumulate
// in the dispatch queue until Release. With the pool held, admission and
// shedding are a pure function of the submission order — the worker count
// cannot influence which jobs are accepted, which is what makes the
// load-test experiment's per-tenant counters reproducible bit for bit.
func (s *Service) Hold() { s.disp.hold() }

// Release reopens dispatch after Hold.
func (s *Service) Release() { s.disp.release() }

// resumeCheckpointed requeues every checkpointed job left behind by a dead
// process, under its original ID and with the checkpoint attached, before
// any worker starts — interrupted work drains ahead of new submissions.
func (s *Service) resumeCheckpointed() {
	cs, ok := s.store.(CheckpointStore)
	if !ok || s.checkpointEvery <= 0 {
		return
	}
	ids, err := cs.ListCheckpoints()
	if err != nil {
		s.logf("resume: listing checkpoints failed: %v", err)
		return
	}
	for _, id := range ids {
		cp, err := cs.GetCheckpoint(id)
		if err != nil || cp == nil {
			s.logf("resume: checkpoint %s unreadable: %v", id, err)
			continue
		}
		j := &job{
			id:        cp.JobID,
			spec:      cp.Spec,
			fp:        NewFingerprint(cp.Spec),
			state:     StateQueued,
			submitted: time.Now(),
			done:      make(chan struct{}),
			resume:    cp,
		}
		// Specs checkpointed before priorities existed normalize to batch.
		if err := j.spec.Normalize(); err != nil {
			s.logf("resume: checkpoint %s holds an invalid spec: %v", id, err)
			continue
		}
		// Resumed jobs re-enter admission accounting (they occupy queue and
		// tenant capacity) but pay no rate token — they were admitted once.
		shed, ok := s.disp.enqueue(j)
		if !ok {
			s.logf("resume: queue full; leaving checkpointed job %s for the next restart", id)
			continue
		}
		s.tenantLocked(j.spec.Tenant).inFlight++
		if shed != nil && shed.state == StateQueued {
			// An interactive resume displaced an earlier-resumed batch job.
			// Its checkpoint stays behind, so the next restart retries it —
			// shed here means deferred, not lost.
			s.shedLocked(shed)
			close(shed.done)
			s.metrics.admission("shed").Inc()
			s.logf("[%s] shed: displaced by resumed %s", shed.id, j.id)
		}
		// Keep the ID sequence monotonic past every resumed job, so fresh
		// submissions never collide with resumed IDs.
		var n int
		if _, err := fmt.Sscanf(cp.JobID, "job-%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.metrics.jobsResumed.Inc()
		s.logf("[%s] resumed from checkpoint: %d paid runs carried over", j.id, len(cp.Entries))
	}
}

// Metrics returns the registry the service reports into.
func (s *Service) Metrics() *obs.Registry { return s.cfg.Metrics }

// Store returns the service's history store.
func (s *Service) Store() Store { return s.store }

func (s *Service) logf(format string, args ...any) { progress.F(s.cfg.Logf, format, args...) }

// factory returns the (cached) backend factory for a spec, so record-mode
// backends share one trace sink across jobs.
func (s *Service) factory(spec string) (*runner.Factory, error) {
	if spec == "" {
		spec = s.cfg.Backend
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.factories[spec]; ok {
		return f, nil
	}
	f, err := runner.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	s.factories[spec] = f
	return f, nil
}

// Submit validates and enqueues a job, returning its ID immediately.
func (s *Service) Submit(spec JobSpec) (string, error) {
	return s.submit(spec, nil, nil)
}

// submit is Submit plus the recommendation tier's seeding: refine and
// fallback jobs carry the retrieved prior and its provenance.
func (s *Service) submit(spec JobSpec, seed *core.Prior, from []Neighbor) (string, error) {
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	j := &job{
		spec:       spec,
		fp:         NewFingerprint(spec),
		state:      StateQueued,
		submitted:  time.Now(),
		done:       make(chan struct{}),
		seed:       seed,
		seededFrom: from,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.admission("closed").Inc()
		return "", ErrClosed
	}
	// Per-tenant budgets first (nothing consumed on refusal), then the
	// shared queue bound. Only a fully admitted submission pays a rate
	// token and an in-flight slot.
	ts := s.tenantLocked(spec.Tenant)
	if err := ts.admitLocked(spec.Tenant, s.now()); err != nil {
		s.mu.Unlock()
		var be *BudgetError
		if errors.As(err, &be) {
			s.metrics.admission(be.Reason).Inc()
		}
		return "", err
	}
	s.seq++
	j.id = fmt.Sprintf("job-%06d", s.seq)
	shed, ok := s.disp.enqueue(j)
	if !ok {
		s.seq-- // admission refused; do not burn the ID
		s.mu.Unlock()
		s.metrics.admission("queue_full").Inc()
		return "", fmt.Errorf("%w (%d jobs)", ErrQueueFull, s.cfg.QueueCap)
	}
	ts.chargeLocked()
	if shed != nil && shed.state != StateQueued {
		// The evicted slot held a job already cancelled while queued; its
		// lifecycle is settled, nothing to account.
		shed = nil
	}
	if shed != nil {
		s.shedLocked(shed)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.metrics.admission("accepted").Inc()
	if shed != nil {
		close(shed.done)
		s.metrics.admission("shed").Inc()
		s.logf("[%s] shed: displaced by interactive %s under overload", shed.id, j.id)
	}
	s.logf("[%s] queued: %s %s %.0f GB %s/%s (fingerprint %s)",
		j.id, spec.Cluster, spec.Benchmark, spec.DataSizeGB,
		tenantName(spec.Tenant), spec.Priority, j.fp.Key())
	return j.id, nil
}

// tenantName renders the anonymous tenant readably in logs.
func tenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// shedLocked settles a batch job evicted from the queue by an interactive
// submission under overload. The caller closes shed.done outside the
// service mutex. The job's checkpoint (if it was a resumed job) is left in
// place deliberately: a shed resumed job is deferred to the next restart,
// not lost.
func (s *Service) shedLocked(shed *job) {
	shed.state = StateShed
	shed.finished = time.Now()
	shed.err = "shed: displaced by interactive work under overload"
	s.releaseTenantLocked(shed)
}

// Status returns a job's current snapshot.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	return j.snapshotLocked(), nil
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshotLocked())
	}
	return out
}

// snapshotLocked renders the job; the service mutex must be held (a read
// lock suffices — every job mutation happens under the write lock, so the
// read paths Status/Jobs/Stats snapshot concurrently without serializing
// behind each other or behind Submit).
func (j *job) snapshotLocked() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Spec:        j.spec,
		Fingerprint: j.fp.Key(),
		State:       j.state,
		Error:       j.err,
		Submitted:   j.submitted,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Result blocks until the job finishes and returns its result (an error for
// failed or cancelled jobs).
func (s *Service) Result(id string) (*JobResult, error) {
	s.mu.RLock()
	j, ok := s.jobs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q", id)
	}
	<-j.done
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch j.state {
	case StateSucceeded:
		return j.result, nil
	case StateCancelled:
		return nil, fmt.Errorf("service: job %s cancelled", id)
	case StateShed:
		return nil, fmt.Errorf("service: job %s shed under overload; resubmit", id)
	case StateSuspended:
		return nil, fmt.Errorf("service: job %s suspended by drain; resumes on restart", id)
	default:
		return nil, fmt.Errorf("service: job %s failed: %s", id, j.err)
	}
}

// Cancel requests cancellation: queued jobs are cancelled immediately and
// never start; running jobs stop cooperatively at the next evaluation
// boundary. Cancelling a finished job is a no-op.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("service: unknown job %q", id)
	}
	j.cancelled.Store(true)
	if j.state == StateQueued {
		j.state = StateCancelled
		j.finished = time.Now()
		s.releaseTenantLocked(j)
		s.mu.Unlock()
		close(j.done)
		s.logf("[%s] cancelled while queued", id)
		return nil
	}
	s.mu.Unlock()
	s.logf("[%s] cancellation requested", id)
	return nil
}

// Stats is the service's job census, broken out by lifecycle state.
type Stats struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	Shed      int `json:"shed"`
	Suspended int `json:"suspended"`
}

// Finished is the number of jobs in any terminal state.
func (st Stats) Finished() int {
	return st.Succeeded + st.Failed + st.Cancelled + st.Shed + st.Suspended
}

// Stats reports the queue and pool occupancy and the terminal-state
// breakdown.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st Stats
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateSucceeded:
			st.Succeeded++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		case StateShed:
			st.Shed++
		case StateSuspended:
			st.Suspended++
		}
	}
	return st
}

// Trace returns the job's phase-span timeline: one record per pipeline
// phase (sampling, QCSA, DAGP base selection, IICP, phase-2 search, GP
// hyperparameter resamples), with wall time, simulated cluster seconds and
// run counts. Open spans of a still-running job report Done=false with
// their wall time so far. Queued jobs have an empty trace.
func (s *Service) Trace(id string) ([]obs.SpanRecord, error) {
	s.mu.RLock()
	j, ok := s.jobs[id]
	tl := (*obs.Timeline)(nil)
	if ok {
		tl = j.timeline
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q", id)
	}
	if tl == nil {
		return []obs.SpanRecord{}, nil
	}
	return tl.Snapshot(), nil
}

// Close drains the service gracefully: intake stops (readiness flips
// first, so load balancers stop routing before submissions start failing),
// queued jobs are checkpointed as Suspended instead of cancelled, running
// sessions are asked to park at the next evaluation boundary with their
// checkpoints intact, and a restart with Config.Resume requeues all of
// them under their original IDs — an accepted job survives Close. Only
// when the store cannot hold checkpoints (or checkpointing is disabled)
// does Close fall back to cancelling the backlog.
func (s *Service) Close() {
	s.ready.Store(false)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	cs, canCkpt := s.store.(CheckpointStore)
	canCkpt = canCkpt && s.checkpointEvery > 0
	// Pull the backlog out of the dispatcher atomically: workers never see
	// these jobs, so each is either suspended (checkpointed for the next
	// incarnation) or cancelled, but never half-run.
	var settle []*job
	for _, j := range s.disp.drain() {
		if j.state != StateQueued {
			continue // cancelled while queued; already settled
		}
		if canCkpt {
			cp := j.resume
			if cp == nil {
				cp = &Checkpoint{JobID: j.id, Spec: j.spec, Fingerprint: j.fp.Key(),
					CreatedUnix: time.Now().Unix()}
			}
			if err := cs.PutCheckpoint(*cp); err != nil {
				s.logf("[%s] drain checkpoint failed: %v; cancelling instead", j.id, err)
				j.cancelled.Store(true)
				j.state = StateCancelled
			} else {
				j.state = StateSuspended
				j.err = "suspended: service drained; resume with Config.Resume"
			}
		} else {
			j.cancelled.Store(true)
			j.state = StateCancelled
		}
		j.finished = time.Now()
		s.releaseTenantLocked(j)
		settle = append(settle, j)
	}
	if canCkpt {
		// Running sessions park at the next evaluation boundary and flush
		// their checkpoints; without a checkpoint store they simply run to
		// completion as before.
		for _, j := range s.jobs {
			if j.state == StateRunning {
				j.suspend.Store(true)
			}
		}
	}
	s.disp.close()
	s.mu.Unlock()
	for _, j := range settle {
		close(j.done)
		s.logf("[%s] %s on drain", j.id, j.state)
	}
	s.wg.Wait()
	// Flush backend factories (trace sinks of recording backends) once no
	// session can execute anymore.
	s.mu.Lock()
	factories := s.factories
	s.factories = map[string]*runner.Factory{}
	s.mu.Unlock()
	for spec, f := range factories {
		if err := f.Close(); err != nil {
			s.logf("backend %q close failed: %v", spec, err)
		}
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.disp.dequeue()
		if !ok {
			return
		}
		s.mu.Lock()
		if j.state != StateQueued {
			// Cancelled while waiting in the queue; already settled.
			s.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		j.timeline = obs.NewTimeline()
		s.mu.Unlock()
		s.metrics.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
		res, err := s.runJobSafe(j)
		switch {
		case errors.Is(err, core.ErrStopped) && j.suspend.Load() && !j.cancelled.Load():
			// Parked by a graceful drain: the session flushed its checkpoint
			// on the way out, so the next incarnation resumes it. Keep the
			// checkpoint — this is the one non-terminal "terminal" state.
			s.finish(j, StateSuspended, nil, nil)
			continue
		case errors.Is(err, core.ErrStopped):
			s.finish(j, StateCancelled, nil, nil)
		case err != nil:
			if s.requeueForRetry(j, err) {
				continue
			}
			s.finish(j, StateFailed, nil, err)
		default:
			// A cancellation that lands after the last Stop poll loses the
			// race: the session completed, so its result stands.
			s.finish(j, StateSucceeded, res, nil)
		}
		// Terminal states retire the checkpoint: only jobs interrupted by a
		// process death or parked by a drain leave one behind for Resume.
		s.dropCheckpoint(j.id)
	}
}

// requeueForRetry puts a failed job back on the queue when the retry budget
// allows, refreshed from its checkpoint so already-paid runs carry over.
// Returns false when the job must finish as failed (budget exhausted,
// cancellation requested, service closing, or queue full).
func (s *Service) requeueForRetry(j *job, cause error) bool {
	if s.cfg.JobRetries <= 0 || j.attempts >= s.cfg.JobRetries || j.cancelled.Load() {
		return false
	}
	if cs, ok := s.store.(CheckpointStore); ok {
		if cp, err := cs.GetCheckpoint(j.id); err == nil && cp != nil {
			j.resume = cp
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	requeued := false
	// Retries re-enter the job's own priority lane but never evict anyone:
	// a flapping job must not displace healthy queued work.
	if s.disp.requeue(j) {
		j.attempts++
		j.state = StateQueued
		j.submitted = time.Now()
		requeued = true
	}
	s.mu.Unlock()
	if requeued {
		s.logf("[%s] failed (%v); retry %d/%d queued", j.id, cause, j.attempts, s.cfg.JobRetries)
	}
	return requeued
}

// dropCheckpoint removes a finished job's checkpoint, if any.
func (s *Service) dropCheckpoint(id string) {
	if s.checkpointEvery <= 0 {
		return
	}
	if cs, ok := s.store.(CheckpointStore); ok {
		if err := cs.DeleteCheckpoint(id); err != nil {
			s.logf("[%s] checkpoint delete failed: %v", id, err)
		}
	}
}

func (s *Service) finish(j *job, st State, res *JobResult, err error) {
	s.mu.Lock()
	j.state = st
	j.finished = time.Now()
	j.result = res
	if err != nil {
		j.err = err.Error()
	}
	if st == StateSuspended {
		j.err = "suspended: service drained; resume with Config.Resume"
	}
	s.releaseTenantLocked(j)
	if st == StateSucceeded && res != nil {
		// Cluster time is charged when it is known, not when the job is
		// admitted: the budget meters what the tenant actually consumed.
		s.tenantLocked(j.spec.Tenant).clusterSec += res.ClusterSec
	}
	started := j.started
	s.mu.Unlock()
	if !started.IsZero() {
		s.metrics.jobSeconds(st).Observe(j.finished.Sub(started).Seconds())
	}
	close(j.done)
	switch st {
	case StateSucceeded:
		s.logf("[%s] succeeded: tuned %.0f s (default %.0f s), overhead %.0f s, warm=%v",
			j.id, res.TunedSec, res.DefaultSec, res.OverheadSec, res.WarmStarted)
	case StateFailed:
		s.logf("[%s] failed: %v", j.id, err)
	case StateCancelled:
		s.logf("[%s] cancelled", j.id)
	case StateSuspended:
		s.logf("[%s] suspended mid-session; checkpoint holds its progress", j.id)
	}
}

// runJobSafe contains session panics: an execution backend may fail hard
// mid-run (a trace replay that misses under MissFail panics by contract),
// and one poisoned job must not take the whole service down.
func (s *Service) runJobSafe(j *job) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("service: job aborted: %v", r)
		}
	}()
	return s.runJob(j)
}

// runJob executes one tuning session: retrieve a prior from the history
// store, run the core pipeline, persist the outcome.
func (s *Service) runJob(j *job) (*JobResult, error) {
	spec := j.spec
	cl, app, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	f, err := s.factory(spec.Backend)
	if err != nil {
		return nil, err
	}
	// The stream key is the job ID: deterministic for a deterministic
	// submission sequence, which is what record/replay of a whole service
	// run requires.
	raw, err := f.New(cl, spec.Seed, j.id)
	if err != nil {
		return nil, err
	}
	// Fault layers, innermost first: chaos faults individual executions on a
	// deterministic schedule, and the retry wrapper heals its transient
	// drops (tripping a circuit breaker on persistent failure). Both are
	// absent unless chaos is configured — the plain chain stays bit-exact
	// with recorded traces.
	inner := runner.Runner(raw)
	var breakerTripped atomic.Bool
	if s.chaos != nil {
		inner = runner.NewRetrying(runner.NewChaos(inner, *s.chaos), runner.RetryOptions{
			Seed:    spec.Seed,
			OnRetry: s.metrics.retries.Inc,
			OnBreakerOpen: func() {
				breakerTripped.Store(true)
				s.metrics.breakerOpen.Add(1)
			},
		})
		defer func() {
			if breakerTripped.Load() {
				s.metrics.breakerOpen.Add(-1)
			}
		}()
	}
	// Every execution the session issues is charged to the job's tally and
	// the service-wide run metrics, then to any Config.Observers; the whole
	// chain is observational only, so replayed traces still match recorded
	// ones bit for bit.
	var tally runner.Tally
	watchers := append([]runner.RunObserver{&tally, s.metrics.runs}, s.cfg.Observers...)
	observed := runner.Observe(inner, watchers...)
	run := runner.Runner(observed)
	// The checkpoint cache sits outermost so resumed runs are served before
	// they reach the tally — a resumed session's Runs counts only what it
	// actually re-executed (the acceptance bar for resume is zero).
	var cache *runner.Cache
	var ckp *checkpointer
	if cs, ok := s.store.(CheckpointStore); ok && s.checkpointEvery > 0 {
		ckp = newCheckpointer(cs, j, s.checkpointEvery, s.metrics, s.cfg.Logf)
		var paid []runner.TraceEntry
		if j.resume != nil && runner.CapsOf(raw).Deterministic {
			// A deterministic backend re-drives the identical trajectory, so
			// checkpointed runs answer the session's re-requests verbatim.
			paid = j.resume.Entries
		}
		cache = runner.NewCache(run, paid, ckp.onRun)
		run = cache
	}
	space := run.Space()

	opts := spec.CoreOptions()
	// Stop covers both user cancellation and the graceful-drain suspend
	// signal — the worker disambiguates on the way out.
	opts.Stop = func() bool { return j.cancelled.Load() || j.suspend.Load() }
	opts.Logf = progress.Prefixed(s.cfg.Logf, "["+j.id+"] ")
	opts.Tracer = j.timeline
	opts.MaxClusterSec = spec.MaxClusterSec
	if spec.DeadlineSec > 0 {
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(spec.DeadlineSec*float64(time.Second)))
		defer cancel()
		opts.Expired = func() bool { return ctx.Err() != nil }
	}

	if !spec.ColdStart && opts.UseDAGP {
		if j.seed != nil {
			// Refine/fallback jobs are seeded with the recommendation
			// engine's k-NN retrieval, which supersedes the fingerprint
			// lookup (its neighbor set is a superset of the bucket walk).
			opts.Prior = j.seed
			s.logf("[%s] seeded with %d neighbor observations from retrieval", j.id, len(j.seed.Obs))
		} else if prior := s.retrievePrior(j, space); prior != nil {
			s.logf("[%s] retrieved %d prior observations from history", j.id, len(prior.Obs))
			opts.Prior = prior
		}
	}
	if j.resume != nil && !runner.CapsOf(raw).Deterministic && opts.UseDAGP {
		// A non-deterministic backend (a live cluster) cannot replay its
		// trajectory, so the checkpoint's paid observations re-enter as a
		// warm-start prior instead of through the cache.
		if p := checkpointPrior(j.resume); p != nil {
			if opts.Prior == nil {
				opts.Prior = p
			} else {
				opts.Prior.Obs = append(opts.Prior.Obs, p.Obs...)
			}
			s.logf("[%s] warm-starting from %d checkpointed observations", j.id, len(p.Obs))
		}
	}

	rep, err := core.New(run, app, opts).Tune(spec.DataSizeGB)
	if err != nil {
		if errors.Is(err, core.ErrStopped) && j.suspend.Load() && !j.cancelled.Load() && ckp != nil {
			// Parked by a drain: persist the tail of the trajectory so the
			// next incarnation resumes from the exact stop point, not the
			// last periodic flush.
			ckp.flush()
		}
		return nil, err
	}
	if rep.Degraded == "" {
		if err := runner.BackendErr(run); err != nil {
			return nil, fmt.Errorf("service: execution backend failed: %w", err)
		}
	} else {
		s.logf("[%s] degraded: %s; recommending best observed", j.id, rep.Degraded)
	}

	res := NewJobResult(rep, run.NoiselessAppTime(app, space.Default(), spec.DataSizeGB))
	res.SeededFrom = j.seededFrom
	res.Runs, res.ClusterSec = tally.Snapshot()
	if cache != nil {
		res.ResumedRuns = cache.ResumedRuns()
	}
	if err := s.persist(j, rep, res); err != nil {
		// The tuning result is still valid; losing the history entry only
		// costs future warm starts.
		s.logf("[%s] history store write failed: %v", j.id, err)
	}
	return res, nil
}

// NewJobResult builds the result of a finished core session whose default
// configuration costs defaultSec at the target size. The execution tally
// (Runs, ClusterSec, ResumedRuns) and SeededFrom are the service's to fill.
func NewJobResult(rep *core.Report, defaultSec float64) *JobResult {
	res := &JobResult{
		BestConfig:   rep.Best.Clone(),
		BestParams:   paramsToMap(rep.Best),
		TunedSec:     rep.TunedSec,
		DefaultSec:   defaultSec,
		OverheadSec:  rep.OverheadSec,
		SamplingSec:  rep.SamplingSec,
		SearchSec:    rep.SearchSec,
		FullRuns:     rep.FullRuns,
		RQARuns:      rep.RQARuns,
		WarmStarted:  rep.WarmStarted,
		PriorObsUsed: rep.PriorObsUsed,
		SparkConf:    sparkConfString(rep.Best),
		Degraded:     rep.Degraded,
		FellBack:     rep.FellBack,
	}
	if rep.QCSA != nil {
		res.SensitiveQueries = append([]string(nil), rep.QCSA.Sensitive...)
	}
	if rep.IICP != nil {
		res.ImportantParams = importantNames(rep.IICP.Important)
	}
	return res
}

// checkpointPrior converts a checkpoint's successful full-application
// executions into a warm-start prior — the resume path for backends whose
// runs cannot be re-driven deterministically. Returns nil when the
// checkpoint holds no usable observation.
func checkpointPrior(cp *Checkpoint) *core.Prior {
	p := &core.Prior{}
	for _, e := range cp.Entries {
		if e.Kind != runner.TraceApp || e.Result == nil || e.Result.Sec <= 0 {
			continue
		}
		var qs map[string]float64
		if len(e.Result.Queries) > 0 {
			qs = make(map[string]float64, len(e.Result.Queries))
			for _, qr := range e.Result.Queries {
				qs[qr.Name] += qr.Sec
			}
		}
		p.Obs = append(p.Obs, core.PriorObs{
			Conf:      conf.Config(append([]float64(nil), e.Conf...)),
			DataGB:    e.DataGB,
			Sec:       e.Result.Sec,
			QuerySecs: qs,
		})
	}
	if len(p.Obs) == 0 {
		return nil
	}
	return p
}

// maxPriorObs caps the observations injected into a warm-started session,
// keeping the GP fitting cost bounded no matter how much history
// accumulates.
const maxPriorObs = 48

// retrievePrior assembles a warm-start prior from the history entries under
// the job's fingerprint and its neighboring size buckets. The QCSA / IICP
// artifacts come from the newest same-bucket entry (falling back to
// neighbors).
func (s *Service) retrievePrior(j *job, space *conf.Space) *core.Prior {
	var entries []Entry
	for _, fp := range append([]Fingerprint{j.fp}, j.fp.Neighbors()...) {
		es, err := s.store.Get(fp.Key())
		if err != nil {
			s.logf("[%s] history read %s failed: %v", j.id, fp.Key(), err)
			continue
		}
		entries = append(entries, es...)
	}
	byArtifact := slices.Clone(entries)
	sort.SliceStable(byArtifact, func(a, b int) bool {
		sa, sb := byArtifact[a].Fingerprint.SizeBucket == j.fp.SizeBucket,
			byArtifact[b].Fingerprint.SizeBucket == j.fp.SizeBucket
		if sa != sb {
			return sa
		}
		return byArtifact[a].CreatedUnix > byArtifact[b].CreatedUnix
	})
	return priorFrom(entries, byArtifact, j.spec.DataSizeGB, space)
}

// priorFrom assembles a warm-start prior from history entries: their
// observations, in entry order, ranked and capped by dagp.SelectTransfer
// against the target size, plus the QCSA / IICP artifacts of the first entry
// in byArtifact that carries each. Observations stored under a different
// parameter table are skipped; nil means no usable observation.
func priorFrom(entries, byArtifact []Entry, targetGB float64, space *conf.Space) *core.Prior {
	var obs []core.PriorObs
	var samples []dagp.Sample
	for _, e := range entries {
		for _, o := range e.Obs {
			if len(o.Params) != space.Dim() {
				continue // stored under a different parameter table
			}
			c := conf.Config(o.Params)
			obs = append(obs, core.PriorObs{
				Conf: c, DataGB: o.DataGB, Sec: o.Sec, QuerySecs: o.QuerySecs,
			})
			samples = append(samples, dagp.Sample{
				X: space.Encode(c), DataGB: o.DataGB, Sec: o.Sec,
			})
		}
	}
	if len(obs) == 0 {
		return nil
	}
	prior := &core.Prior{}
	for _, i := range dagp.SelectTransfer(samples, targetGB, maxPriorObs) {
		prior.Obs = append(prior.Obs, obs[i])
	}
	for _, e := range byArtifact {
		if prior.Sensitive == nil && len(e.Sensitive) > 0 {
			prior.Sensitive = append([]string(nil), e.Sensitive...)
		}
		if prior.Important == nil && len(e.Important) > 0 {
			for _, name := range e.Important {
				if _, idx, ok := conf.ParamByName(name); ok {
					prior.Important = append(prior.Important, idx)
				}
			}
		}
	}
	return prior
}

// persist writes the finished session into the history store.
func (s *Service) persist(j *job, rep *core.Report, res *JobResult) error {
	e := Entry{
		Fingerprint: j.fp,
		JobID:       j.id,
		CreatedUnix: time.Now().Unix(),
		TargetGB:    j.spec.DataSizeGB,
		TunedSec:    res.TunedSec,
		OverheadSec: res.OverheadSec,
		BestParams:  res.BestParams,
		Sensitive:   res.SensitiveQueries,
		Important:   res.ImportantParams,
	}
	for _, ev := range rep.History {
		if !ev.FullApp {
			// RQA runs measure only the reduced application; persisting
			// them as full-app observations would corrupt future priors.
			continue
		}
		e.Obs = append(e.Obs, Observation{
			Params:    append([]float64(nil), ev.Conf...),
			DataGB:    ev.DataGB,
			Sec:       ev.Sec,
			QuerySecs: ev.QuerySecs,
		})
	}
	if err := s.store.Put(e); err != nil {
		return err
	}
	// Index the fresh entry (and drop whatever the per-key cap evicted) so
	// the recommendation tier sees it immediately.
	s.rec.Sync(e.Fingerprint.Key())
	return nil
}

// sparkConfString renders a configuration in spark-defaults.conf syntax.
func sparkConfString(c conf.Config) string {
	var b strings.Builder
	_ = conf.FormatSparkConf(&b, c)
	return b.String()
}

// importantNames maps parameter indices to Spark property names.
func importantNames(idx []int) []string {
	params := conf.Params()
	out := make([]string, 0, len(idx))
	for _, j := range idx {
		if j >= 0 && j < len(params) {
			out = append(out, params[j].Name)
		}
	}
	return out
}

// paramsToMap converts a configuration vector to a name→value map.
func paramsToMap(c conf.Config) map[string]float64 {
	out := make(map[string]float64, len(c))
	for i, p := range conf.Params() {
		out[p.Name] = c[i]
	}
	return out
}
