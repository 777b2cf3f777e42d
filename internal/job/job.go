// Package job is the durable batch-execution subsystem of the sampling
// daemon: long multi-million-shot sampling workloads run as asynchronous
// jobs instead of single HTTP requests racing a deadline.
//
// The paper's economics (Hillmich/Markov/Wille, DAC 2020) make every shot an
// O(n) walk off a precomputed decision-diagram snapshot — cheap per shot but
// long in wall clock at batch sizes, which is exactly the shape that must
// survive client disconnects, drains, and crashes. Three pieces provide
// that:
//
//   - a write-ahead log (wal.go) in the snapstore codec style — versioned
//     records with a CRC-64 (ECMA) trailer, atomic tmp+rename segment
//     rotation, .corrupt quarantine — persisting job specs and per-chunk
//     completion records, so restart replay reconstructs every non-terminal
//     job exactly;
//   - a chunked executor (manager.go): shots split into fixed-size chunks,
//     chunk i sampled under the independent stream rng.Stream(seed, i) and
//     checkpointed on completion, so a crash loses at most the in-flight
//     chunk and the final merged counts are bit-identical to an
//     uninterrupted run at any kill point (chunk tallies are independent
//     and integer merging is commutative);
//   - a weighted fair-share scheduler (sched.go): per-tenant deficit
//     round-robin with three priority classes, starvation aging, in-flight
//     caps, and quota errors, so one tenant's million-shot backlog cannot
//     starve everyone else.
//
// Resource-governance verdicts stay verdicts: a node-budget overrun (the
// paper's MO) or a blown simulation deadline (TO) during a chunk's snapshot
// build is a terminal job state, never a retry.
package job

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"weaksim/internal/core"
)

// Priority classes. Lower is more urgent.
const (
	PriorityHigh   = 0
	PriorityNormal = 1
	PriorityLow    = 2
)

// ParsePriority maps the API spelling to a class (empty = normal).
func ParsePriority(s string) (int, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return 0, fmt.Errorf("job: unknown priority %q (want high, normal, or low)", s)
}

// PriorityName is the inverse of ParsePriority.
func PriorityName(p int) string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	default:
		return "normal"
	}
}

// State is a job lifecycle state.
type State string

const (
	// StateQueued: accepted and WAL-persisted, waiting for the scheduler.
	StateQueued State = "queued"
	// StateRunning: at least one chunk has been picked up.
	StateRunning State = "running"
	// StateCompleted: every chunk finished; the result is final.
	StateCompleted State = "completed"
	// StateFailed: a chunk hit a deterministic verdict (MO/TO/parse error);
	// the job will not be retried.
	StateFailed State = "failed"
	// StateCancelled: terminal by client request.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// Errors surfaced by the manager. ErrRetry and ErrShutdown are sentinels the
// snapshot provider wraps transient failures in: a retryable chunk releases
// back to the scheduler instead of failing the job.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("job: not found")
	// ErrQuota reports that a tenant is at its non-terminal job quota.
	// The serving layer maps it to HTTP 429 with Retry-After.
	ErrQuota = errors.New("job: tenant quota exceeded")
	// ErrRetry marks a chunk failure as transient (queue full, snapshot
	// flight abandoned): the chunk is released and rescheduled after a
	// short backoff rather than failing the job.
	ErrRetry = errors.New("job: transient failure, chunk will be retried")
	// ErrShutdown marks a chunk failure caused by the daemon draining: the
	// job stays non-terminal in the WAL and resumes on the next start.
	ErrShutdown = errors.New("job: executor shutting down")
	// ErrNotCompleted reports a result fetch on a job that has not
	// completed.
	ErrNotCompleted = errors.New("job: not completed")
)

// VerdictError is a deterministic chunk failure with an explicit error code
// (e.g. "bad_circuit", "config_changed"): the job fails terminally with Code
// as its Status.ErrorCode instead of the generic "internal".
type VerdictError struct {
	Code string
	Err  error
}

func (e *VerdictError) Error() string { return e.Err.Error() }
func (e *VerdictError) Unwrap() error { return e.Err }

// Spec is the immutable description of a job, persisted verbatim in the
// WAL's submit record. Everything needed to resume after a crash is here:
// the circuit source re-resolves the frozen snapshot, and (Seed, ChunkShots)
// re-derive every chunk's random stream.
type Spec struct {
	// ID is the job identifier (assigned at submit).
	ID string `json:"id"`
	// Key is the canonical circuit hash (the snapshot-cache key) computed at
	// submit time; resume re-derives it and refuses to run if the server's
	// keying (norm, codec) drifted under a persisted job.
	Key string `json:"key"`
	// QASM or Circuit names the work: exactly one is set.
	QASM    string `json:"qasm,omitempty"`
	Circuit string `json:"circuit,omitempty"`
	// Qubits is the register width, recorded so results format without
	// re-parsing the circuit.
	Qubits int `json:"qubits"`
	// Shots is the total sample budget.
	Shots int `json:"shots"`
	// Seed is the base sampling seed; chunk i draws from
	// rng.Stream(Seed, i).
	Seed uint64 `json:"seed"`
	// ChunkShots is the per-chunk shot count (the checkpoint granularity).
	// Submit sets DefaultChunkShots when it is zero; it is persisted so a
	// job resumes in the chunks it started with.
	ChunkShots int `json:"chunk_shots"`
	// Norm is the DD normalization scheme the key was computed under.
	Norm string `json:"norm"`
	// Walk is the core.WalkVersion the job's chunks are drawn under. Submit
	// stamps it; it is not settable. A WAL written before the stamp existed
	// decodes it as 0. Replay fails a job that still needs chunks under
	// another walk with config_changed, so no job mixes two walks' chunks.
	Walk int `json:"walk"`
	// Priority is the class (PriorityHigh..PriorityLow).
	Priority int `json:"priority"`
	// Tenant attributes the job for fair-share scheduling and quotas.
	Tenant string `json:"tenant"`
	// CreatedUnixMS is the submit wall-clock (for aging and display).
	CreatedUnixMS int64 `json:"created_unix_ms"`
}

// ChunksTotal is the number of chunks the shot budget splits into.
func (s *Spec) ChunksTotal() int {
	if s.Shots <= 0 || s.ChunkShots <= 0 {
		return 0
	}
	return (s.Shots + s.ChunkShots - 1) / s.ChunkShots
}

// ChunkShotCount is chunk i's shot quota (the last chunk takes the
// remainder).
func (s *Spec) ChunkShotCount(i int) int {
	total := s.ChunksTotal()
	if i < 0 || i >= total {
		return 0
	}
	if i == total-1 {
		if rem := s.Shots - (total-1)*s.ChunkShots; rem > 0 {
			return rem
		}
	}
	return s.ChunkShots
}

// Validate checks the spec's internal consistency (the serving layer has
// already validated the circuit itself).
func (s *Spec) Validate() error {
	if s.ID == "" {
		return errors.New("job: spec has no ID")
	}
	if (s.QASM == "") == (s.Circuit == "") {
		return errors.New("job: exactly one of QASM and Circuit must be set")
	}
	if s.Qubits < 0 || s.Qubits > 64 {
		return fmt.Errorf("job: qubits out of range: %d", s.Qubits)
	}
	if s.Shots < 1 {
		return fmt.Errorf("job: shots must be positive, got %d", s.Shots)
	}
	if s.ChunkShots < 1 {
		return fmt.Errorf("job: chunk_shots must be positive, got %d", s.ChunkShots)
	}
	if s.Priority < PriorityHigh || s.Priority > PriorityLow {
		return fmt.Errorf("job: priority out of range: %d", s.Priority)
	}
	if s.Tenant == "" {
		return errors.New("job: spec has no tenant")
	}
	return nil
}

// NewID mints a job identifier: 16 hex chars of OS randomness under a "j"
// prefix. Uniqueness across restarts comes from the entropy source, not a
// persisted counter, so ID minting never touches the WAL.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; degrade to a
		// clock-derived ID rather than failing the submit.
		return fmt.Sprintf("j%016x", uint64(time.Now().UnixNano()))
	}
	return "j" + hex.EncodeToString(b[:])
}

// Status is a point-in-time snapshot of a job, JSON-ready for the API.
type Status struct {
	ID         string `json:"job_id"`
	State      State  `json:"state"`
	Tenant     string `json:"tenant"`
	Priority   string `json:"priority"`
	CircuitKey string `json:"circuit_key"`
	Qubits     int    `json:"qubits"`
	Shots      int    `json:"shots"`
	Seed       uint64 `json:"seed"`
	ChunkShots int    `json:"chunk_shots"`
	// ChunksTotal/ChunksDone are overall progress; ShotsDone is the same
	// progress in shots.
	ChunksTotal int `json:"chunks_total"`
	ChunksDone  int `json:"chunks_done"`
	ShotsDone   int `json:"shots_done"`
	// ChunksRecovered is how many completed chunks were reconstructed from
	// the WAL when this process started (0 for jobs submitted to it).
	ChunksRecovered int `json:"chunks_recovered"`
	// ChunksExecuted is how many chunks this process actually sampled for
	// the job. After a kill-and-resume,
	// Executed - (Total - Recovered) is exactly the re-sampled chunk count
	// the durability contract bounds at one.
	ChunksExecuted int `json:"chunks_executed"`
	// ErrorCode/Error describe a failed job (memory_out, timeout, internal,
	// bad_circuit, config_changed).
	ErrorCode string `json:"error_code,omitempty"`
	Error     string `json:"error,omitempty"`
	// PhaseNS is the cumulative per-phase wall-clock breakdown, summed from
	// the job trace's spans: snapshot (build/fetch of the frozen DD), sample
	// (chunk walks), wal (checkpoint encoding, append and merge).
	PhaseNS map[string]int64 `json:"phase_ns,omitempty"`
	// TraceID is the job's request-trace ID (chunk spans land in the flight
	// recorder under it).
	TraceID       string `json:"trace_id,omitempty"`
	CreatedUnixMS int64  `json:"created_unix_ms"`
	UpdatedUnixMS int64  `json:"updated_unix_ms"`
}

// SnapshotFunc resolves the frozen sampler a job's chunks walk. The serving
// layer backs it with the snapshot LRU + single-flight + simulation pool, so
// a job's strong simulation is shared with interactive traffic and runs at
// most once. Transient failures must be wrapped in ErrRetry (chunk
// reschedules) or ErrShutdown (job parks until restart); anything else is a
// deterministic verdict and fails the job terminally.
type SnapshotFunc func(ctx context.Context, spec Spec) (core.Sampler, error)
