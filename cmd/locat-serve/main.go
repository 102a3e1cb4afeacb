// Command locat-serve runs the LOCAT tuning service: a long-running HTTP
// server with a pool of concurrent tuning sessions and a persistent
// history store that warm-starts sessions for workloads similar to past
// ones. With -store, interrupted jobs checkpoint to disk and -resume
// requeues them on restart without re-paying completed sample runs.
//
// Usage:
//
//	locat-serve -addr :8080 -store ./locat-history -workers 4 -resume
//	locat-serve -tenant 'acme:max_inflight=4,rate=2' -tenant '*:max_inflight=8'
//
// -tenant (repeatable) sets per-tenant admission budgets; the "*" entry
// applies to every tenant without one. Over-budget submissions get 429 with
// a Retry-After header. Jobs carry "tenant", "priority" ("interactive"
// dispatches first and is never shed; "batch" is the default),
// "deadline_sec" and "max_cluster_sec" in their spec.
//
// API (JSON unless noted; errors are {"error":{"code","message"}}):
//
//	POST   /v1/jobs            submit {"cluster","benchmark","data_size_gb",...}
//	                           (422 invalid spec, 429 + Retry-After queue full
//	                           or over budget, 503 closing)
//	POST   /v1/recommend       zero-execution recommendation from the history
//	                           store (synchronous; optional "refine" mode)
//	GET    /v1/jobs            list jobs (limit/offset pagination, state= filter)
//	GET    /v1/jobs/{id}       job status
//	GET    /v1/jobs/{id}/result  finished job's result
//	GET    /v1/jobs/{id}/conf    tuned spark-defaults.conf (text/plain)
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/jobs/{id}/trace   the job's phase-span timeline
//	GET    /v1/history         history-store summaries (limit/offset pagination)
//	GET    /v1/history/{key}   entries under one workload fingerprint
//	GET    /healthz            liveness and job census by state
//	GET    /readyz             readiness (503 while resuming or draining)
//	GET    /metrics            Prometheus text exposition
//	GET    /debug/pprof/...    Go profiling endpoints (only with -pprof)
//
// Example session:
//
//	curl -s -XPOST -H 'Content-Type: application/json' localhost:8080/v1/jobs \
//	     -d '{"benchmark":"TPC-H","data_size_gb":100}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/v1/jobs/job-000001/conf
//	curl -s -XPOST -H 'Content-Type: application/json' localhost:8080/v1/recommend \
//	     -d '{"benchmark":"TPC-H","data_size_gb":120}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"locat"
)

// cliConfig is the parsed command line.
type cliConfig struct {
	addr    string
	pprofOn bool
	opts    locat.ServiceOptions
}

// parseFlags builds the service configuration from the command line; split
// from main so tests can drive it without exec'ing the binary.
func parseFlags(args []string, stderr io.Writer) (cliConfig, error) {
	fs := flag.NewFlagSet("locat-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c cliConfig
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.opts.HistoryDir, "store", "", "history-store directory (empty: in-memory, lost on exit)")
	fs.IntVar(&c.opts.Workers, "workers", 2, "maximum concurrent tuning sessions")
	fs.BoolVar(&c.opts.Quiet, "quiet", false, "suppress the progress log")
	fs.StringVar(&c.opts.Backend, "backend", "", "default execution backend: sim, record=PATH, replay=PATH, sparkrest=URL (jobs may override)")
	fs.BoolVar(&c.pprofOn, "pprof", false, "expose Go profiling under /debug/pprof/ (off by default: profiling endpoints on a shared service are a footgun)")
	fs.BoolVar(&c.opts.Resume, "resume", false, "requeue checkpointed jobs interrupted by a previous process death (needs -store)")
	fs.IntVar(&c.opts.QueueCap, "max-queue", 0, "maximum queued jobs before submissions are refused with 429 (0: default 256)")
	fs.IntVar(&c.opts.JobRetries, "job-retries", 0, "automatic retries of failed jobs, each resuming from the job's checkpoint")
	fs.StringVar(&c.opts.Chaos, "chaos", "", "deterministic fault-injection spec for resilience testing, e.g. drop=0.3,maxfail=2,seed=7")
	fs.IntVar(&c.opts.MaxHistoryKeys, "max-history-keys", 0, "distinct workload fingerprints kept in the history store (0: default 1024, negative: unbounded)")
	fs.Func("tenant", "per-tenant budget, repeatable: 'name:max_inflight=N,rate=R,burst=B,max_cluster_sec=S' ('*' applies to unlisted tenants)", func(v string) error {
		name, budget, err := parseTenant(v)
		if err != nil {
			return err
		}
		if c.opts.Tenants == nil {
			c.opts.Tenants = map[string]locat.TenantBudget{}
		}
		if _, dup := c.opts.Tenants[name]; dup {
			return fmt.Errorf("duplicate -tenant %q", name)
		}
		c.opts.Tenants[name] = budget
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return cliConfig{}, err
	}
	if c.opts.QueueCap < 0 {
		return cliConfig{}, errors.New("locat-serve: -max-queue must be >= 0")
	}
	if c.opts.JobRetries < 0 {
		return cliConfig{}, errors.New("locat-serve: -job-retries must be >= 0")
	}
	if c.opts.Resume && c.opts.HistoryDir == "" {
		return cliConfig{}, errors.New("locat-serve: -resume needs -store (an in-memory store has no checkpoints to resume)")
	}
	return c, nil
}

// parseTenant parses one -tenant value:
// "name:max_inflight=N,rate=R,burst=B,max_cluster_sec=S" with every budget
// key optional. The bare form "name" admits the tenant unbudgeted (useful
// to exempt one tenant from a "*" default).
func parseTenant(v string) (string, locat.TenantBudget, error) {
	name, spec, hasSpec := strings.Cut(v, ":")
	name = strings.TrimSpace(name)
	var b locat.TenantBudget
	if name == "" {
		return "", b, fmt.Errorf("-tenant %q: empty tenant name", v)
	}
	if !hasSpec || strings.TrimSpace(spec) == "" {
		return name, b, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return "", b, fmt.Errorf("-tenant %q: %q is not key=value", v, kv)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || f < 0 {
			return "", b, fmt.Errorf("-tenant %q: %s wants a non-negative number, got %q", v, key, val)
		}
		switch strings.TrimSpace(key) {
		case "max_inflight":
			b.MaxInFlight = int(f)
		case "rate":
			b.SubmitRate = f
		case "burst":
			b.SubmitBurst = int(f)
		case "max_cluster_sec":
			b.MaxClusterSec = f
		default:
			return "", b, fmt.Errorf("-tenant %q: unknown budget key %q (want max_inflight, rate, burst or max_cluster_sec)", v, key)
		}
	}
	return name, b, nil
}

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	svc, err := locat.NewService(c.opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locat-serve:", err)
		os.Exit(1)
	}

	handler := svc.Handler()
	if c.pprofOn {
		// Mount the profiling handlers explicitly instead of importing the
		// package for its DefaultServeMux side effect: the API mux stays in
		// front, and without -pprof nothing is reachable.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	srv := &http.Server{Addr: c.addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "locat-serve: listening on %s (workers=%d, store=%s)\n",
		c.addr, c.opts.Workers, storeDesc(c.opts.HistoryDir))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "locat-serve:", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "locat-serve: %s, draining\n", sig)
		// Drain the service before the listener: Close flips /readyz to 503
		// (so load balancers stop routing here while the port still answers)
		// and checkpoints queued and running jobs for a -resume restart.
		// Only then stop accepting connections, letting in-flight requests
		// finish.
		svc.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
	}
}

func storeDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
