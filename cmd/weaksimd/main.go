// Command weaksimd is the sampling daemon: weak simulation as a service.
// It accepts circuits over HTTP/JSON (OpenQASM 2.0 source or named
// benchmark circuits) and returns measurement counts, caching frozen state
// snapshots so each distinct circuit is strongly simulated at most once and
// every further request costs only O(n)-per-shot lock-free sampling.
//
// Usage:
//
//	weaksimd -addr :8080
//	weaksimd -addr :8080 -dd-node-budget 2000000 -cache-bytes 268435456
//	weaksimd -addr :8080 -debug-addr localhost:6060   # /metrics + pprof
//	weaksimd -addr :8080 -snapshot-dir /var/lib/weaksim  # warm restarts
//
// Example session:
//
//	curl -s localhost:8080/v1/sample -d '{"circuit":"qft_16","shots":1000,"seed":7}'
//	curl -s localhost:8080/v1/sample -d '{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];","shots":100}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/slo      # burn rates + error budgets
//	curl -s localhost:8080/debug/flight  # recent-span ring as JSONL
//
// Every response carries X-Weaksim-Trace-Id. Requests may supply a W3C
// traceparent header to join an existing distributed trace, and ?debug=1 on
// /v1/sample echoes the per-phase latency breakdown in the JSON body.
// -flight-dir additionally dumps the recent-span ring to disk whenever the
// daemon trips on a panic, an injected fault, or an SLO fast-burn breach.
//
// Status codes mirror the resource-governance ladder: 507 when the DD node
// budget is exceeded (the paper's MO), 504 on a blown deadline (TO), 429
// with Retry-After when the simulation admission queue is full, 503 while
// draining. SIGINT/SIGTERM trigger a graceful drain bounded by
// -drain-timeout.
//
// Probes are split: /healthz is liveness (200 for as long as the process
// answers HTTP, even mid-drain; restart on failure) and /readyz is
// readiness (503 from the moment a drain begins; stop routing on failure).
//
// With -snapshot-dir, every frozen snapshot is also persisted to a
// crash-safe on-disk store (atomic rename writes, CRC-64 trailer) and
// loaded back on start, so a restarted daemon answers previously seen
// circuits without re-running strong simulation. Files failing the CRC or
// the DD invariant audit are quarantined as *.corrupt and re-simulated.
//
// With -jobs-dir, the daemon also runs durable batch jobs (POST /v1/jobs):
// shots are sampled in checkpointed chunks under a WAL, so a crash or kill
// loses at most one in-flight chunk per job and a restart resumes every
// job with final counts bit-identical to an uninterrupted run.
// -job-workers sizes the chunk executor, -job-tenant-weights the fair-share
// split, and -job-max-per-tenant the per-tenant active-job quota (429
// beyond it). Jobs checkpoint every job.DefaultChunkShots shots unless a
// submit picks its own chunk_shots; at the default, a job's counts equal
// /v1/sample's for the same circuit, seed and shots.
//
// On startup the daemon logs one JSON line of the fully-resolved effective
// config ({"event":"effective_config",...}) for field debugging.
//
// -fault (or $WEAKSIM_FAULT) arms the deterministic fault-injection
// framework for chaos testing; never set it in production.
//
// With -cluster, the same binary runs as a cluster router instead of a
// replica: it consistent-hashes each circuit's canonical key over the
// backend fleet (-backends and/or a watched -backends-file), health-checks
// replicas via /readyz, fails over on transport errors and 502/503 (never
// on the deterministic 507/504 governance verdicts, never on 500), and
// ships frozen snapshots between replicas over GET/PUT /v1/snapshot/{hash}
// so a circuit is strongly simulated at most once fleet-wide:
//
//	weaksimd -addr :8080                              # replica 1..N
//	weaksimd -cluster -addr :9090 -backends host1:8080,host2:8080
//	weaksimd -cluster -addr :9090 -backends-file /etc/weaksim/backends.txt
//	curl -s localhost:9090/v1/cluster                 # ring + health view
//
// Simulation flags (-dd-node-budget, -cache-bytes, -queue, ...) are
// replica-side and ignored by a router; -norm must match the replicas so
// the router keys circuits exactly as they cache them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"weaksim/internal/cluster"
	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/job"
	"weaksim/internal/obs"
	"weaksim/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil, nil, nil); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "weaksimd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body. ready (replica mode) and clusterReady
// (router mode), when non-nil, receive the running server once it is up
// (tests use them to learn the bound address); stopCh, when non-nil,
// triggers the same graceful drain a SIGTERM would (tests cannot safely
// signal the shared test process).
func run(args []string, stdout, stderr io.Writer, ready chan<- *serve.Server, clusterReady chan<- *cluster.Router, stopCh <-chan struct{}) error {
	fs := flag.NewFlagSet("weaksimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address (\":0\" = ephemeral)")
		debugAddr   = fs.String("debug-addr", "", "optional debug server address (/metrics, /metrics.json, expvar, pprof)")
		norm        = fs.String("norm", "l2phase", "DD normalization scheme: left, l2, or l2phase")
		nodeBudget  = fs.Int("dd-node-budget", 0, "max live DD nodes per simulation; overruns return HTTP 507 (0 = unlimited)")
		cacheBytes  = fs.Int64("cache-bytes", serve.DefaultCacheBytes, "frozen-snapshot LRU capacity in bytes")
		queueDepth  = fs.Int("queue", serve.DefaultQueueDepth, "simulation admission queue depth; a full queue returns HTTP 429")
		simWorkers  = fs.Int("sim-workers", 0, "strong-simulation worker pool size (0 = GOMAXPROCS)")
		maxWorkers  = fs.Int("max-sample-workers", 0, "per-request sampling worker cap (0 = GOMAXPROCS)")
		maxShots    = fs.Int("max-shots", serve.DefaultMaxShots, "per-request shot cap")
		timeout     = fs.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline; blown deadlines return HTTP 504")
		drain       = fs.Duration("drain-timeout", 15*time.Second, "graceful drain window after SIGTERM/SIGINT")
		snapshotDir = fs.String("snapshot-dir", "", "crash-safe snapshot store for warm restarts (empty = in-memory only)")
		flightDir   = fs.String("flight-dir", "", "directory for flight-recorder JSONL dumps on panic/fault/SLO breach (empty = /debug/flight only)")
		flightSlots = fs.Int("flight-slots", 0, "flight-recorder ring capacity in records (0 = default)")
		noTraces    = fs.Bool("no-request-traces", false, "disable per-request tracing (X-Weaksim-Trace-Id, debug=1 breakdowns)")
		faultSpec   = fs.String("fault", os.Getenv("WEAKSIM_FAULT"), "chaos-testing fault spec, e.g. \"dd.freeze:err@3,snapstore.write:corrupt@1\" (default $WEAKSIM_FAULT)")
		faultSeed   = fs.Uint64("fault-seed", 1, "deterministic seed for fault byte corruption")

		jobsDir      = fs.String("jobs-dir", "", "durable batch-job WAL directory; restarts resume every non-terminal job (empty = in-memory jobs)")
		jobWorkers   = fs.Int("job-workers", job.DefaultWorkers, "batch-job chunk executor pool size")
		jobWeights   = fs.String("job-tenant-weights", "", "fair-share scheduler weights, e.g. \"acme=10,guest=1\" (unlisted tenants weigh 1)")
		jobMaxTenant = fs.Int("job-max-per-tenant", job.DefaultMaxPerTenant, "active batch jobs per tenant before submissions answer HTTP 429")

		clusterMode   = fs.Bool("cluster", false, "run as a cluster router over a replica fleet instead of a replica")
		backends      = fs.String("backends", "", "cluster mode: comma-separated replica base URLs")
		backendsFile  = fs.String("backends-file", "", "cluster mode: watched membership file, one replica URL per line (#-comments ok)")
		ringReplicas  = fs.Int("ring-replicas", cluster.DefaultReplicaCount, "cluster mode: warm snapshot copies beyond the primary (also failover depth; -1 disables)")
		probeInterval = fs.Duration("probe-interval", cluster.DefaultProbeInterval, "cluster mode: /readyz health-probe cadence")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	normScheme, err := dd.ParseNorm(*norm)
	if err != nil {
		return err
	}
	tenantWeights, err := parseTenantWeights(*jobWeights)
	if err != nil {
		return err
	}
	logEffectiveConfig(stdout, fs, *clusterMode)
	if *faultSpec != "" {
		if err := fault.Enable(*faultSpec, *faultSeed); err != nil {
			return err
		}
		defer fault.Disable()
		fmt.Fprintf(stderr, "weaksimd: FAULT INJECTION ARMED: %s (seed %d)\n", *faultSpec, *faultSeed)
	}

	if *clusterMode {
		var list []string
		for _, b := range strings.Split(*backends, ",") {
			if s := strings.TrimSpace(b); s != "" {
				list = append(list, s)
			}
		}
		router, err := cluster.NewRouter(cluster.Config{
			Addr:           *addr,
			Backends:       list,
			BackendsFile:   *backendsFile,
			ReplicaCount:   *ringReplicas,
			ProbeInterval:  *probeInterval,
			Norm:           normScheme,
			RequestTimeout: *timeout,
			Metrics:        obs.NewRegistry(),
		})
		if err != nil {
			return err
		}
		if err := router.Start(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "weaksimd: cluster router listening on %s (norm %s, ring replicas %d)\n",
			router.Addr(), normScheme, *ringReplicas)
		if clusterReady != nil {
			clusterReady <- router
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		select {
		case <-ctx.Done():
		case <-stopCh:
		}
		stop()
		fmt.Fprintf(stdout, "weaksimd: draining (up to %v)...\n", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := router.Shutdown(drainCtx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Fprintln(stdout, "weaksimd: bye")
		return nil
	}

	srv := serve.New(serve.Config{
		Addr:                 *addr,
		DebugAddr:            *debugAddr,
		Norm:                 normScheme,
		NodeBudget:           *nodeBudget,
		CacheBytes:           *cacheBytes,
		QueueDepth:           *queueDepth,
		SimWorkers:           *simWorkers,
		MaxSampleWorkers:     *maxWorkers,
		MaxShots:             *maxShots,
		RequestTimeout:       *timeout,
		SnapshotDir:          *snapshotDir,
		FlightDir:            *flightDir,
		FlightSlots:          *flightSlots,
		DisableRequestTraces: *noTraces,
		JobsDir:              *jobsDir,
		JobWorkers:           *jobWorkers,
		JobTenantWeights:     tenantWeights,
		JobMaxPerTenant:      *jobMaxTenant,
		Metrics:              obs.NewRegistry(),
	})
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "weaksimd: listening on %s (norm %s, node budget %d, cache %d bytes)\n",
		srv.Addr(), normScheme, *nodeBudget, *cacheBytes)
	if *debugAddr != "" {
		fmt.Fprintf(stdout, "weaksimd: debug server on %s\n", *debugAddr)
	}
	if ready != nil {
		ready <- srv
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case <-stopCh:
	}
	stop()
	fmt.Fprintf(stdout, "weaksimd: draining (up to %v)...\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(stdout, "weaksimd: bye")
	return nil
}

// parseTenantWeights parses "-job-tenant-weights", a comma list of
// name=weight pairs with positive integer weights.
func parseTenantWeights(s string) (map[string]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if !ok || name == "" || err != nil || w < 1 {
			return nil, fmt.Errorf("invalid tenant weight %q (want name=positive-integer)", part)
		}
		weights[name] = w
	}
	return weights, nil
}

// logEffectiveConfig emits one structured JSON line with every flag's
// fully-resolved value (defaults applied, overrides folded in), so a log
// scrape answers "what was this daemon actually running with" without
// reconstructing the command line.
func logEffectiveConfig(w io.Writer, fs *flag.FlagSet, clusterMode bool) {
	flags := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	mode := "replica"
	if clusterMode {
		mode = "cluster"
	}
	line, err := json.Marshal(map[string]any{
		"event": "effective_config",
		"mode":  mode,
		"flags": flags,
	})
	if err != nil {
		return
	}
	fmt.Fprintln(w, string(line))
}
