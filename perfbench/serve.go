package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"locat/internal/obs"
	"locat/internal/runner"
	"locat/internal/service"
)

// seedBudget is the sample budget of the cold sessions that fill the
// history store at set-up: small enough to keep set-up short, large enough
// (10 full-application runs) for every entry to warm-start later jobs.
func seedBudget(j seedJob, cold bool) service.JobSpec {
	return service.JobSpec{
		Cluster: j.Cluster, Benchmark: j.Benchmark, DataSizeGB: j.GB, Seed: j.Seed,
		NQCSA: 10, NIICP: 8, MaxIterations: 8, ColdStart: cold,
	}
}

// serveEnv is one running tuning service — the real HTTP handler on a
// loopback server, one worker, a FileStore in a fresh directory — plus the
// benchmark's client for it.
type serveEnv struct {
	dir    string
	fs     *service.FileStore
	ts     *timingStore // nil unless traced
	runs   *runLog      // nil unless traced
	rec    *recorder    // nil unless traced
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
	url    string
	seeded []seedJob
	// setupJobs are the jobs set-up ran to fill the store.
	setupJobs []jobRecord
}

// newServe starts the service over an empty store and seeds the store with
// the seed's cold sessions plus one warm-started session.
func newServe(out string, seed int64, rec *recorder) (*serveEnv, error) {
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	fs, err := service.NewFileStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{dir: dir, fs: fs, rec: rec, seeded: storePlan(seed)}
	cfg := service.Config{Workers: 1, Store: fs}
	if rec != nil {
		e.ts = newTimingStore(fs, rec)
		e.runs = &runLog{}
		cfg.Store = e.ts
		cfg.Observers = []runner.RunObserver{e.runs}
	}
	e.svc = service.New(cfg)
	e.srv = httptest.NewServer(e.svc.Handler())
	e.url = e.srv.URL
	e.client = &http.Client{Timeout: 60 * time.Second}

	var specs []service.JobSpec
	for _, j := range e.seeded {
		specs = append(specs, seedBudget(j, true))
	}
	cold := e.runJobs(specs, 2, setupPoll)
	// One more session next to the first seeded one must warm-start from it.
	w := e.seeded[0]
	w.GB = w.GB * 1.2
	w.Seed++
	warm := e.runJobs([]service.JobSpec{seedBudget(w, false)}, 1, setupPoll)
	e.setupJobs = append(cold, warm...)
	for i, j := range e.setupJobs {
		if j.err != "" {
			e.close()
			return nil, fmt.Errorf("set-up job %s: %s", j.ID, j.err)
		}
		if i == len(e.setupJobs)-1 && !j.Result.WarmStarted {
			e.close()
			return nil, errors.New("set-up warm job did not warm-start")
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.srv.Close()
	e.svc.Close()
	os.RemoveAll(e.dir)
}

// jobRecord is one finished job as the client saw it.
type jobRecord struct {
	ID     string
	Status service.JobStatus
	Result apiResult
	Trace  []obs.SpanRecord
	// SubmitMS and PollMS are the client-side HTTP times of the submit and
	// of every status poll.
	SubmitMS float64
	PollMS   []float64
	Rejected bool
	err      string
}

// apiResult is the part of GET /v1/jobs/{id}/result the benchmark checks.
type apiResult struct {
	TunedSec    float64 `json:"tuned_sec"`
	OverheadSec float64 `json:"overhead_sec"`
	WarmStarted bool    `json:"warm_started"`
	Runs        int64   `json:"runs"`
	Degraded    string  `json:"degraded"`
}

func (r jobRecord) latency() float64 {
	if r.Status.Finished == nil {
		return 0
	}
	return secs(r.Status.Finished.Sub(r.Status.Submitted))
}

// do sends one request and decodes a 2xx JSON body into out.
func (e *serveEnv) do(method, path string, body any, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.url+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	dur := time.Since(start)
	if err != nil {
		return resp.StatusCode, dur, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, dur, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, dur, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, dur, nil
}

// setupPoll is how often set-up polls its jobs, two in flight: set-up time
// ends when a poll sees the warm job finish, so a coarse poll would add up
// to its interval, at random, to every set-up.
const setupPoll = 10 * time.Millisecond

// runJobs is the closed-loop job client: it keeps up to inflight jobs
// submitted, polls each every poll until it is terminal, then fetches its
// result and trace. It returns when every spec has run.
func (e *serveEnv) runJobs(specs []service.JobSpec, inflight int, poll time.Duration) []jobRecord {
	var done []jobRecord
	var open []*jobRecord
	next := 0
	for {
		for len(open) < inflight && next < len(specs) {
			r := &jobRecord{}
			var resp struct {
				ID string `json:"id"`
			}
			code, dur, err := e.do("POST", "/v1/jobs", specs[next], &resp)
			next++
			r.SubmitMS = ms(dur)
			if err != nil {
				r.Rejected = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
				r.err = err.Error()
				done = append(done, *r)
				continue
			}
			r.ID = resp.ID
			open = append(open, r)
		}
		if len(open) == 0 {
			return done
		}
		time.Sleep(poll)
		kept := open[:0]
		for _, r := range open {
			var st service.JobStatus
			_, dur, err := e.do("GET", "/v1/jobs/"+r.ID, nil, &st)
			r.PollMS = append(r.PollMS, ms(dur))
			if err != nil {
				r.err = err.Error()
				done = append(done, *r)
				continue
			}
			if !st.State.Terminal() {
				kept = append(kept, r)
				continue
			}
			r.Status = st
			if st.State != service.StateSucceeded {
				r.err = fmt.Sprintf("job %s %s: %s", r.ID, st.State, st.Error)
			} else if _, _, err := e.do("GET", "/v1/jobs/"+r.ID+"/result", nil, &r.Result); err != nil {
				r.err = err.Error()
			} else {
				var tr struct {
					Spans []obs.SpanRecord `json:"spans"`
				}
				if _, _, err := e.do("GET", "/v1/jobs/"+r.ID+"/trace", nil, &tr); err != nil {
					r.err = err.Error()
				}
				r.Trace = tr.Spans
			}
			done = append(done, *r)
		}
		open = kept
	}
}

// readSample is one recommendation request of the open-loop reader.
type readSample struct {
	LatMS  float64 // from the request's due time to its response
	LateMS float64 // how late the generator sent it
	SvcMS  float64 // from send to response
	OK     bool
	Hit    bool
	// In-process comparison (traced runs, every fourth request): the same
	// request through Service.Recommend, and the store reads it made.
	InprocMS float64
	Gets     int
	Compared bool
}

func recommendRequest(j seedJob) service.RecommendRequest {
	return service.RecommendRequest{
		JobSpec:    service.JobSpec{Cluster: j.Cluster, Benchmark: j.Benchmark, DataSizeGB: j.GB},
		NoFallback: true,
	}
}

// upTo is the request budget of a phase with a fixed request count.
func upTo(n int) func(int) bool { return func(i int) bool { return i < n } }

// openLoop sends recommendation requests on a fixed schedule of rate per
// second from one client goroutine, as long as more(i) allows request i,
// timing each from when it was due (an infinite rate sends them back to
// back). It gives up early (aborted) once the generator runs more than
// abortMS late: the backlog is growing and the step has failed.
func (e *serveEnv) openLoop(reqs []service.RecommendRequest, first int, rate float64, more func(int) bool, abortMS float64, compare bool) (out []readSample, aborted bool) {
	start := time.Now()
	interval := time.Duration(0)
	if !math.IsInf(rate, 1) {
		interval = time.Duration(float64(time.Second) / rate)
	}
	for i := 0; more(i); i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		s := readSample{LateMS: ms(sent.Sub(due))}
		if abortMS > 0 && s.LateMS > abortMS {
			return out, true
		}
		req := reqs[(first+i)%len(reqs)]
		var rec service.Recommendation
		code, dur, err := e.do("POST", "/v1/recommend", req, &rec)
		end := time.Now()
		s.LatMS, s.SvcMS = ms(end.Sub(due)), ms(dur)
		s.OK = err == nil && code == http.StatusOK && rec.RefineJobID == "" &&
			(rec.Outcome == "hit" || rec.Outcome == "miss")
		s.Hit = rec.Outcome == "hit"
		trace := fmt.Sprintf("req-%d-%d", first, i)
		e.rec.add(trace, 0, "http/recommend", sent, end)
		if compare && e.ts != nil && i%4 == 0 {
			g0, _ := e.ts.stats("store/get")
			t0 := time.Now()
			_, err := e.svc.Recommend(req)
			t1 := time.Now()
			g1, _ := e.ts.stats("store/get")
			e.rec.add(trace, 0, "service/recommend", t0, t1)
			s.InprocMS, s.Gets, s.Compared = ms(t1.Sub(t0)), g1-g0, err == nil
		}
		out = append(out, s)
	}
	return out, false
}

// readResult is the outcome of a read phase: the base-rate step plus the
// rate sweep.
type readResult struct {
	base   []readSample
	steps  []rateStep
	maxRPS float64
	// capacity is the closed-loop throughput of one client; passRate the
	// highest offered rate that passed.
	capacity, passRate float64
	// attempted and failed count every request of the phase, sweep included.
	attempted, failed int
}

type rateStep struct {
	Rate   float64
	P90MS  float64
	Passed bool
}

const (
	// baseRate is the recommendation rate the latency percentiles of the
	// idle read probe are taken at, in requests per second.
	baseRate = 100.0
	// mixRate is the recommendation rate of serve-mix reads while the
	// writer runs. Reads and warm jobs share two vCPUs, and the busier they
	// keep them, the further job latency swings with the host's speed: over
	// ten runs at 100 req/s it moved 2.45 times as far as the reference
	// samples did (in log terms), more than any reference could cancel; at
	// 40 req/s, 1.21 times.
	mixRate = 40.0
	// latencyLimitMS is the p90 limit a sweep step must meet. The step
	// criterion uses p90 — every step has at least ten samples beyond it —
	// because a p99 over one short step is a single stall on a shared host.
	latencyLimitMS = 50.0
)

// readLoad runs the base-rate step as long as more allows — bracketed by
// reference samples on m, when set — then sweep looks for the highest rate
// that keeps p90 under the limit with no growing backlog. The search starts
// from the client's closed-loop throughput (capacityN requests back to
// back), so it needs a handful of steps whatever the speed of the read
// path. maxRPS is the throughput achieved at the highest passing step.
func (e *serveEnv) readLoad(seed int64, more func(int) bool, compare bool, m *speedMeter) readResult {
	reqs := readRequests(seed)
	var res readResult
	m.mark()
	res.base, _ = e.openLoop(reqs, 0, baseRate, more, 0, compare)
	m.mark()
	res.count(res.base)
	e.sweep(reqs, &res)
	return res
}

// readRequests is the seed's request sequence of the reader.
func readRequests(seed int64) []service.RecommendRequest {
	reqs := make([]service.RecommendRequest, 0, 512)
	for _, j := range readPlan(seed, 512) {
		reqs = append(reqs, recommendRequest(j))
	}
	return reqs
}

// count adds a phase's requests to the attempted and failed counts.
func (res *readResult) count(s []readSample) {
	for _, x := range s {
		res.attempted++
		if !x.OK {
			res.failed++
		}
	}
}

// sweep runs the rate search after the base-rate samples in res, continuing
// the request sequence where they ended.
func (e *serveEnv) sweep(reqs []service.RecommendRequest, res *readResult) {
	count := res.count
	next := len(res.base)

	start := time.Now()
	burst, _ := e.openLoop(reqs, next, math.Inf(1), upTo(capacityN), 0, false)
	res.capacity = float64(len(burst)) / time.Since(start).Seconds()
	next += len(burst)
	count(burst)

	step := func(rate float64) bool {
		n := max(100, int(rate*stepSeconds))
		start := time.Now()
		s, aborted := e.openLoop(reqs, next, rate, upTo(n), 4*latencyLimitMS, false)
		achieved := float64(len(s)) / time.Since(start).Seconds()
		next += len(s)
		count(s)
		lat := make([]float64, len(s))
		ok := !aborted && len(s) > 0
		for i, x := range s {
			lat[i] = x.LatMS
			ok = ok && x.OK
		}
		p90 := quantile(lat, 0.90)
		ok = ok && p90 <= latencyLimitMS && s[len(s)-1].LateMS <= latencyLimitMS
		res.steps = append(res.steps, rateStep{Rate: rate, P90MS: p90, Passed: ok})
		if ok && rate > res.passRate {
			res.passRate, res.maxRPS = rate, achieved
		}
		return ok
	}
	// Walk from the closed-loop throughput in rateStepFactor steps — up
	// while steps pass, down while they fail — then bisect once between
	// the highest passing and the lowest failing rate.
	lo, hi := 0.0, 0.0
	if rate := res.capacity; step(rate) {
		for lo = rate; step(lo * rateStepFactor); lo *= rateStepFactor {
		}
		hi = lo * rateStepFactor
	} else {
		for hi = rate; hi > baseRate && !step(hi/rateStepFactor); hi /= rateStepFactor {
		}
		lo = hi / rateStepFactor
	}
	if res.passRate > 0 {
		step(math.Sqrt(lo * hi))
	}
}

const (
	// capacityN is the size of the closed-loop burst that measures the
	// client's throughput ceiling.
	capacityN      = 200
	stepSeconds    = 0.6
	rateStepFactor = 1.1
)
