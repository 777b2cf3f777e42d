package serve

// Batch-job HTTP surface, backed by internal/job:
//
//	POST   /v1/jobs             {qasm|circuit, shots, seed?, chunk_shots?,
//	                             priority?, tenant?} → 202 + job status
//	GET    /v1/jobs             → all known jobs, newest first
//	GET    /v1/jobs/{id}        → job status
//	GET    /v1/jobs/{id}/result → merged counts (409 until completed)
//	DELETE /v1/jobs/{id}        → cancel (idempotent)
//	GET    /v1/jobs/{id}/events → NDJSON progress frames until terminal
//
// A job's chunks resolve their frozen snapshot through the same
// lookup path as interactive /v1/sample traffic — snapshot LRU,
// single-flight, bounded simulation pool — so a batch job and a live
// request for the same circuit share one strong simulation. Transient
// admission failures (queue full, drain in progress) release the chunk back
// to the scheduler; governance verdicts (MO/TO) terminate the job.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/circuit/qasm"
	"weaksim/internal/core"
	"weaksim/internal/job"
)

// DefaultJobMaxShots caps a single job's shot budget (distinct from the
// per-request MaxShots: jobs exist precisely to exceed it).
const DefaultJobMaxShots = 1 << 30

// jobSubmitRequest is the POST /v1/jobs body.
type jobSubmitRequest struct {
	// QASM or Circuit names the work; exactly one must be set (same contract
	// as /v1/sample).
	QASM    string `json:"qasm,omitempty"`
	Circuit string `json:"circuit,omitempty"`
	// Shots is the total sample budget (required; capped at JobMaxShots).
	Shots int `json:"shots"`
	// Seed seeds sampling; omitted means 1. Chunk i draws from
	// rng.Stream(seed, i), so results are reproducible and
	// checkpoint-stable.
	Seed *uint64 `json:"seed,omitempty"`
	// ChunkShots overrides the server's checkpoint granularity.
	ChunkShots int `json:"chunk_shots,omitempty"`
	// Priority is "high", "normal" (default), or "low".
	Priority string `json:"priority,omitempty"`
	// Tenant attributes the job for fair-share weighting and quotas
	// (default "default").
	Tenant string `json:"tenant,omitempty"`
}

// jobResultResponse is the GET /v1/jobs/{id}/result success body.
type jobResultResponse struct {
	JobID string `json:"job_id"`
	// Counts is written like /v1/sample's: keys in ascending order.
	Counts countsJSON `json:"counts"`
	Qubits int        `json:"qubits"`
	Shots  int        `json:"shots"`
	Seed   uint64     `json:"seed"`
}

// resolveJobCircuit re-parses a job spec's circuit source. Used at submit
// (validation) and by every chunk (the spec, not a pointer, is what survives
// a restart).
func (s *Server) resolveJobCircuit(spec job.Spec) (*circuit.Circuit, error) {
	var circ *circuit.Circuit
	var err error
	if spec.Circuit != "" {
		circ, err = algo.Generate(spec.Circuit)
	} else {
		circ, err = qasm.Parse(spec.QASM, "job "+spec.ID)
	}
	if err != nil {
		return nil, err
	}
	if err := circ.Validate(); err != nil {
		return nil, err
	}
	return circ, nil
}

// jobSnapshot is the job manager's SnapshotFunc: resolve the chunk's frozen
// sampler through the shared cache/flight/pool path. Error translation is
// the contract here — the job layer must know retryable from terminal:
//
//	draining / cancelled base ctx → ErrShutdown (job parks, resumes on start)
//	admission queue full          → ErrRetry    (chunk backs off, retries)
//	circuit no longer parses      → VerdictError "bad_circuit"
//	cache key drifted since submit → VerdictError "config_changed"
//	MO / TO / anything else       → terminal verdict, unchanged
func (s *Server) jobSnapshot(ctx context.Context, spec job.Spec) (core.Sampler, error) {
	circ, err := s.resolveJobCircuit(spec)
	if err != nil {
		return nil, &job.VerdictError{Code: "bad_circuit", Err: err}
	}
	key := CircuitKey(circ, s.cfg.Norm, false)
	if key != spec.Key {
		// The WAL outlived a config change (norm, hashing codec): refusing is
		// the only answer that keeps "same job ID → same counts" true.
		return nil, &job.VerdictError{
			Code: "config_changed",
			Err: fmt.Errorf("serve: circuit key drifted: spec has %s, server computes %s",
				spec.Key, key),
		}
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	ent, _, err := s.lookup(ctx, key, circ)
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			return nil, fmt.Errorf("%w: %v", job.ErrShutdown, err)
		case errors.Is(err, ErrQueueFull):
			return nil, fmt.Errorf("%w: %v", job.ErrRetry, err)
		}
		return nil, err
	}
	return ent.sampler, nil
}

// handleJobs serves the /v1/jobs collection: submit and list.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: errorInfo{
			Code: "method_not_allowed", Message: "use GET or POST", Status: http.StatusMethodNotAllowed}})
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, ErrDraining)
		return
	}
	var req jobSubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, badRequest{fmt.Errorf("invalid JSON body: %w", err)})
		return
	}
	if (req.QASM == "") == (req.Circuit == "") {
		s.writeError(w, badRequest{errors.New(`exactly one of "qasm" and "circuit" must be set`)})
		return
	}
	if req.Shots < 1 {
		s.writeError(w, badRequest{fmt.Errorf("shots must be positive, got %d", req.Shots)})
		return
	}
	if req.Shots > s.cfg.JobMaxShots {
		s.writeError(w, badRequest{fmt.Errorf("shots %d exceeds the per-job cap %d", req.Shots, s.cfg.JobMaxShots)})
		return
	}
	if req.ChunkShots < 0 {
		s.writeError(w, badRequest{fmt.Errorf("chunk_shots must be non-negative, got %d", req.ChunkShots)})
		return
	}
	prio, err := job.ParsePriority(req.Priority)
	if err != nil {
		s.writeError(w, badRequest{err})
		return
	}
	if req.Seed == nil {
		one := uint64(1)
		req.Seed = &one
	}
	spec := job.Spec{
		QASM:       req.QASM,
		Circuit:    req.Circuit,
		Shots:      req.Shots,
		Seed:       *req.Seed,
		ChunkShots: req.ChunkShots,
		Norm:       s.cfg.Norm.String(),
		Priority:   prio,
		Tenant:     req.Tenant,
	}
	// Validate the circuit at the door — a job that can never run should be
	// a 400 now, not a failed state later — and pin the cache key the chunks
	// will verify against.
	circ, err := s.resolveJobCircuit(spec)
	if err != nil {
		s.writeError(w, badRequest{err})
		return
	}
	if circ.NQubits > s.cfg.MaxQubits {
		s.writeError(w, badRequest{fmt.Errorf("circuit has %d qubits; this server accepts at most %d",
			circ.NQubits, s.cfg.MaxQubits)})
		return
	}
	spec.Key = CircuitKey(circ, s.cfg.Norm, false)
	spec.Qubits = circ.NQubits

	st, err := s.jobs.Submit(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobByID routes /v1/jobs/{id}[/result|/events].
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		s.writeError(w, badRequest{errors.New("missing job ID")})
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		st, err := s.jobs.Get(id)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case sub == "" && r.Method == http.MethodDelete:
		st, err := s.jobs.Cancel(id)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case sub == "result" && r.Method == http.MethodGet:
		s.handleJobResult(w, id)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleJobEvents(w, r, id)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: errorInfo{
			Code: "method_not_allowed", Message: "unsupported job operation", Status: http.StatusMethodNotAllowed}})
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, id string) {
	counts, qubits, err := s.jobs.Result(id)
	if err != nil {
		if errors.Is(err, job.ErrNotCompleted) {
			// 409: the resource exists but is not in a result-bearing state;
			// the status endpoint says how far along it is.
			st, gerr := s.jobs.Get(id)
			if gerr != nil {
				s.writeError(w, gerr)
				return
			}
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": errorInfo{
					Code:    "not_completed",
					Message: fmt.Sprintf("job %s is %s (%d/%d chunks)", id, st.State, st.ChunksDone, st.ChunksTotal),
					Status:  http.StatusConflict,
				},
				"status": st,
			})
			return
		}
		s.writeError(w, err)
		return
	}
	st, err := s.jobs.Get(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobResultResponse{
		JobID:  id,
		Counts: countsJSON{core.TallyOf(counts), qubits},
		Qubits: qubits,
		Shots:  st.Shots,
		Seed:   st.Seed,
	})
}

// handleJobEvents streams NDJSON progress frames: one per chunk completion
// plus a final terminal frame, ending when the job settles or the client
// disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	ch, cancel, err := s.jobs.Subscribe(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if ev.Terminal {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
