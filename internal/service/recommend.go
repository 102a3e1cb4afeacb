package service

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/progress"
	"locat/internal/service/retrieve"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// Defaults of the zero-execution recommendation tier. MaxDistance is
// calibrated against the retrieve package's feature weights: the same
// workload one size bucket away sits around 0.25, a different benchmark,
// cluster or technique set well past 0.75.
const (
	DefaultRecommendK           = 5
	DefaultRecommendMaxDistance = 0.75
	DefaultRecommendConfidence  = 0.5
)

// RecommendOptions tune one recommendation: how many neighbors to retrieve,
// how far a workload may be and still count as a neighbor, and the
// confidence below which the request falls back to a real tuning session.
// Zero values pick the Default* constants above.
type RecommendOptions struct {
	K             int     `json:"k,omitempty"`
	MaxDistance   float64 `json:"max_distance,omitempty"`
	MinConfidence float64 `json:"min_confidence,omitempty"`
}

func (o RecommendOptions) withDefaults() RecommendOptions {
	if o.K <= 0 {
		o.K = DefaultRecommendK
	}
	if o.MaxDistance <= 0 {
		o.MaxDistance = DefaultRecommendMaxDistance
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = DefaultRecommendConfidence
	}
	return o
}

// RecommendRequest is the wire format of POST /v1/recommend: the workload
// spec, optional retrieval overrides, and the two mode flags.
type RecommendRequest struct {
	JobSpec
	RecommendOptions
	// Refine, on a confident hit, additionally submits a background tuning
	// job seeded with the retrieved neighbors (reported as RefineJobID) —
	// serve the blended config now, converge to a tuned one later.
	Refine bool `json:"refine,omitempty"`
	// NoFallback suppresses the automatic tuning-job submission when
	// confidence is low: the response reports outcome "miss" instead.
	NoFallback bool `json:"no_fallback,omitempty"`
}

// Neighbor is the provenance of one retrieved history entry.
type Neighbor struct {
	JobID    string  `json:"job_id"`
	Key      string  `json:"key"`
	Distance float64 `json:"distance"`
	Weight   float64 `json:"weight"`
	TunedSec float64 `json:"tuned_sec"`
	TargetGB float64 `json:"target_gb"`
	Obs      int     `json:"obs"`
}

// Recommendation is the outcome of a zero-execution recommendation.
type Recommendation struct {
	// Outcome is "hit" (config served from retrieval), "fallback" (low
	// confidence; a tuning job was submitted as RefineJobID) or "miss" (low
	// confidence and NoFallback). The served config and provenance are
	// present on every outcome with at least one usable neighbor.
	Outcome string `json:"outcome"`
	// BestConfig / BestParams / SparkConf are the distance-weighted blend
	// of the neighbors' best-observed configurations, snapped to the knob
	// space.
	BestConfig conf.Config        `json:"best_config,omitempty"`
	BestParams map[string]float64 `json:"best_params,omitempty"`
	SparkConf  string             `json:"spark_conf,omitempty"`
	// Confidence in [0,1] scores the retrieval evidence (see
	// retrieve.Confidence).
	Confidence float64 `json:"confidence"`
	// EstimatedSec is the distance-weighted mean of the neighbors' tuned
	// latencies — a rough expectation, not a measurement.
	EstimatedSec float64 `json:"estimated_sec,omitempty"`
	// Neighbors is the retrieval provenance, nearest first.
	Neighbors []Neighbor `json:"neighbors"`
	// RefineJobID is the background tuning job submitted for refine=true
	// hits and for low-confidence fallbacks.
	RefineJobID string `json:"refine_job_id,omitempty"`
	// RefineError records a refine submission that failed (the
	// recommendation itself still stands).
	RefineError string `json:"refine_error,omitempty"`
}

// Recommender is the zero-execution recommendation engine: a k-NN index of
// feature vectors over the history store. It never touches an execution
// backend — Recommend costs index-scan microseconds and zero sample runs.
//
// The index is a cache of the store. On construction it is loaded from the
// store's persistent index file (when the store has one) and synced against
// the store's actual contents; entries evicted from the store afterwards are
// compacted out lazily when retrieval finds them gone.
type Recommender struct {
	store Store
	path  string // index file ("" = in-memory only)
	logf  progress.Logf

	mu sync.Mutex // serializes index mutation + persistence
	ix *retrieve.Index
}

// NewRecommender builds a recommender over the store, loading the persisted
// index when the store keeps one (FileStore) and syncing it with the store's
// contents — vectors survive restarts, and entries added or evicted while
// the index was offline are reconciled here.
func NewRecommender(store Store) *Recommender {
	rc := &Recommender{store: store}
	if ip, ok := store.(interface{ IndexPath() string }); ok {
		rc.path = ip.IndexPath()
		rc.ix = retrieve.Load(rc.path)
	} else {
		rc.ix = retrieve.NewIndex()
	}
	rc.rebuild()
	return rc
}

// Len returns the number of indexed history entries.
func (rc *Recommender) Len() int { return rc.ix.Len() }

// entryID is the index identity of a history entry: stable across restarts,
// unique enough that a collision can only be the same session persisted
// twice (in which case replacing is the right outcome).
func entryID(e Entry) string {
	return e.Fingerprint.Key() + "/" + e.JobID + "@" + strconv.FormatInt(e.CreatedUnix, 10)
}

// indexItem featurizes a history entry. Entries whose benchmark the binary
// no longer knows cannot be featurized and are skipped (not an error: the
// store may hold entries from a newer build).
func indexItem(e Entry) (retrieve.Item, bool) {
	w, err := workloadOf(e.Fingerprint.Cluster, e.Fingerprint.Benchmark,
		e.TargetGB, e.Fingerprint.Techniques, len(e.Obs))
	if err != nil {
		return retrieve.Item{}, false
	}
	return retrieve.Item{ID: entryID(e), Key: e.Fingerprint.Key(), Vec: w.Vector()}, true
}

// specWorkload featurizes a (normalized) job spec as the retrieval query.
// The observation-deficit dimension is 0: the query asks for well-observed
// neighbors.
func specWorkload(spec JobSpec) (retrieve.Workload, error) {
	tech := techniquesCode(!spec.DisableQCSA, !spec.DisableIICP, !spec.DisableDAGP)
	return workloadOf(spec.Cluster, spec.Benchmark, spec.DataSizeGB, tech, 16)
}

// workloadOf maps the tuning domain onto the retrieve feature space:
// cluster architecture and scale, log input size, the benchmark's query-plan
// mix (class fractions, scan-weighted shuffle volume, stage depth, compute
// intensity, skew), the technique bits, and how many observations back the
// entry.
func workloadOf(cluster, benchmark string, dataGB float64, techniques string, obsCount int) (retrieve.Workload, error) {
	app, err := workloads.ByName(benchmark)
	if err != nil {
		return retrieve.Workload{}, err
	}
	cl := JobSpec{Cluster: cluster}.cluster()
	w := retrieve.Workload{TotalCores: float64(cl.TotalCores())}
	if cluster == "x86" {
		w.ClusterCode = 1
	}
	if dataGB > 1 {
		w.Log2GB = math.Log2(dataGB)
	}
	n := len(app.Queries)
	w.Queries = float64(n)
	if n > 0 {
		var joins, aggs, shuffle, scanned, input, stages, cpu, skew float64
		for _, q := range app.Queries {
			switch q.Class {
			case sparksim.Join:
				joins++
			case sparksim.Aggregation:
				aggs++
			}
			shuffle += q.InputFrac * q.ShuffleFrac
			scanned += q.InputFrac
			input += q.InputFrac
			stages += float64(q.Stages)
			cpu += q.CPUWeight
			skew += q.Skew
		}
		fn := float64(n)
		w.JoinFrac, w.AggFrac = joins/fn, aggs/fn
		if scanned > 0 {
			w.ShuffleFrac = shuffle / scanned
		}
		w.InputFrac = input / fn
		w.Stages = stages / fn
		w.CPUWeight = cpu / fn
		w.Skew = skew / fn
	}
	if strings.Contains(techniques, "q") {
		w.QCSA = 1
	}
	if strings.Contains(techniques, "i") {
		w.IICP = 1
	}
	if strings.Contains(techniques, "d") {
		w.DAGP = 1
	}
	if d := 1 - float64(obsCount)/16; d > 0 {
		w.ObsDeficit = d
	}
	return w, nil
}

// rebuild syncs the index with the store: featurize entries the index does
// not know (preserving already-persisted vectors, which is the point of the
// index file), compact out entries the store no longer holds, and persist
// the result.
func (rc *Recommender) rebuild() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	keys, err := rc.store.Keys()
	if err != nil {
		progress.F(rc.logf, "recommender: index rebuild: %v", err)
		return
	}
	alive := map[string]bool{}
	changed := false
	for _, k := range keys {
		entries, err := rc.store.Get(k)
		if err != nil {
			progress.F(rc.logf, "recommender: index rebuild read %s: %v", k, err)
			continue
		}
		for _, e := range entries {
			id := entryID(e)
			alive[id] = true
			if rc.ix.Has(id) {
				continue
			}
			if it, ok := indexItem(e); ok {
				rc.ix.Upsert(it)
				changed = true
			}
		}
	}
	if rc.ix.Compact(func(it retrieve.Item) bool { return alive[it.ID] }) > 0 {
		changed = true
	}
	if changed {
		rc.saveLocked()
	}
}

// Sync refreshes the index for one store key — the post-persist hook: newly
// written entries are indexed, entries the per-key cap evicted are dropped.
func (rc *Recommender) Sync(key string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	entries, err := rc.store.Get(key)
	if err != nil {
		progress.F(rc.logf, "recommender: index sync %s: %v", key, err)
		return
	}
	alive := map[string]bool{}
	for _, e := range entries {
		id := entryID(e)
		alive[id] = true
		if rc.ix.Has(id) {
			continue
		}
		if it, ok := indexItem(e); ok {
			rc.ix.Upsert(it)
		}
	}
	rc.ix.Compact(func(it retrieve.Item) bool { return it.Key != key || alive[it.ID] })
	rc.saveLocked()
}

// saveLocked persists the index when the store keeps one.
func (rc *Recommender) saveLocked() {
	if rc.path == "" {
		return
	}
	if err := rc.ix.Save(rc.path); err != nil {
		progress.F(rc.logf, "recommender: index save: %v", err)
	}
}

// Recommend retrieves the k nearest history entries for the spec,
// distance-weights their best-observed configurations into one blended
// config snapped to the knob space, and scores the evidence. It also
// assembles the warm-start prior a refine or fallback session would seed
// from (nil when the neighbors carry no usable observations). The returned
// Recommendation has outcome "hit" or "miss"; job submission is the
// service's concern.
func (rc *Recommender) Recommend(spec JobSpec, o RecommendOptions) (*Recommendation, *core.Prior, error) {
	if err := spec.Normalize(); err != nil {
		return nil, nil, err
	}
	o = o.withDefaults()
	w, err := specWorkload(spec)
	if err != nil {
		return nil, nil, err
	}
	matches := rc.ix.Nearest(w.Vector(), o.K, o.MaxDistance)

	// Resolve matches to store entries. A match whose entry is gone is
	// stale — the store evicted it — and is compacted out here, lazily.
	var hits []neighborHit
	var stale []string
	byKey := map[string][]Entry{}
	for _, m := range matches {
		entries, ok := byKey[m.Key]
		if !ok {
			entries, err = rc.store.Get(m.Key)
			if err != nil {
				return nil, nil, err
			}
			byKey[m.Key] = entries
		}
		found := false
		for _, e := range entries {
			if entryID(e) == m.ID {
				hits = append(hits, neighborHit{e: e, d: m.Dist})
				found = true
				break
			}
		}
		if !found {
			stale = append(stale, m.ID)
		}
	}
	if len(stale) > 0 {
		rc.mu.Lock()
		for _, id := range stale {
			rc.ix.Remove(id)
		}
		rc.saveLocked()
		rc.mu.Unlock()
	}

	// Blend the neighbors' best configs in the unit encoding and snap the
	// result back onto the knob space (Decode rounds integer knobs and
	// repairs resource constraints).
	space := spec.cluster().Space()
	rec := &Recommendation{Outcome: "miss", Neighbors: []Neighbor{}}
	var encs [][]float64
	var dists []float64
	var used []Entry
	for _, h := range hits {
		c, ok := entryConfig(h.e)
		if !ok {
			continue
		}
		encs = append(encs, space.Encode(c))
		dists = append(dists, h.d)
		used = append(used, h.e)
	}
	// used is nearest-first, so the closest workload's artifacts win.
	prior := priorFrom(used, used, spec.DataSizeGB, space)
	if len(used) == 0 {
		return rec, prior, nil
	}
	weights := retrieve.Weights(dists)
	rec.BestConfig = space.Decode(retrieve.Blend(encs, weights))
	rec.BestParams = paramsToMap(rec.BestConfig)
	rec.SparkConf = sparkConfString(rec.BestConfig)
	rec.Confidence = retrieve.Confidence(dists, o.K, o.MaxDistance)
	for i, e := range used {
		rec.Neighbors = append(rec.Neighbors, Neighbor{
			JobID:    e.JobID,
			Key:      e.Fingerprint.Key(),
			Distance: dists[i],
			Weight:   weights[i],
			TunedSec: e.TunedSec,
			TargetGB: e.TargetGB,
			Obs:      len(e.Obs),
		})
		rec.EstimatedSec += weights[i] * e.TunedSec
	}
	if rec.Confidence >= o.MinConfidence {
		rec.Outcome = "hit"
	}
	return rec, prior, nil
}

// neighborHit pairs a resolved history entry with its retrieval distance.
type neighborHit struct {
	e Entry
	d float64
}

// entryConfig reconstructs an entry's best configuration from its
// name→value map. Entries persisted under a different parameter table (a
// missing name) are unusable for blending.
func entryConfig(e Entry) (conf.Config, bool) {
	params := conf.Params()
	c := make(conf.Config, len(params))
	for i, p := range params {
		v, ok := e.BestParams[p.Name]
		if !ok {
			return nil, false
		}
		c[i] = v
	}
	return c, true
}

// Recommend serves a zero-execution recommendation: retrieve, blend, score
// — and, depending on the outcome and the request's mode flags, submit a
// background tuning job (seeded with the retrieved neighbors) as the refine
// or fallback path. The retrieval itself never executes a sample run.
func (s *Service) Recommend(req RecommendRequest) (*Recommendation, error) {
	start := time.Now()
	// Refine and fallback jobs are work a user is waiting on: they default
	// to the interactive priority class unless the caller says otherwise.
	if req.JobSpec.Priority == "" {
		req.JobSpec.Priority = PriorityInteractive
	}
	rec, prior, err := s.rec.Recommend(req.JobSpec, req.RecommendOptions)
	if err != nil {
		s.metrics.recommendOutcome("error").Inc()
		return nil, err
	}
	s.metrics.retrieval.Observe(time.Since(start).Seconds())
	outcome := rec.Outcome
	switch {
	case rec.Outcome == "hit" && req.Refine:
		id, err := s.submit(req.JobSpec, prior, rec.Neighbors)
		if err != nil {
			// The hit stands on its own; a refused refine job is reported,
			// not fatal.
			rec.RefineError = err.Error()
		} else {
			rec.RefineJobID = id
			outcome = "refine"
		}
	case rec.Outcome == "miss" && !req.NoFallback:
		id, err := s.submit(req.JobSpec, prior, rec.Neighbors)
		if err != nil {
			s.metrics.recommendOutcome("error").Inc()
			return nil, err
		}
		rec.RefineJobID = id
		rec.Outcome = "fallback"
		outcome = "fallback"
	}
	s.metrics.recommendOutcome(outcome).Inc()
	s.logf("recommend: %s %s %.0f GB -> %s (confidence %.2f, %d neighbors)",
		req.JobSpec.Cluster, req.JobSpec.Benchmark, req.JobSpec.DataSizeGB,
		rec.Outcome, rec.Confidence, len(rec.Neighbors))
	return rec, nil
}

// Recommender exposes the service's recommendation engine (read-only use:
// diagnostics and experiments).
func (s *Service) Recommender() *Recommender { return s.rec }
