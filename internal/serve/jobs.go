package serve

// Batch-job HTTP surface, backed by internal/job. A job is a /v1/sample
// batch made durable: the same circuit resolution, the same core.ChunkShots
// chunks drawn by the same chunk body (core.TallyChunk), each checkpointed
// in the WAL, so a job's counts equal /v1/sample's for the same (circuit,
// seed, shots), and its result writes them with the same counts writer.
//
//	POST   /v1/jobs             {qasm|circuit, shots, seed?, priority?,
//	                             tenant?} → 202 + job status
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

	"weaksim/internal/core"
	"weaksim/internal/job"
)

// JobMaxShots caps a single job's shot budget (distinct from the
// per-request MaxShots: jobs exist precisely to exceed it).
const JobMaxShots = 1 << 30

// jobSubmitRequest is the POST /v1/jobs body.
type jobSubmitRequest struct {
	// circuitSource names the work, as for /v1/sample.
	circuitSource
	// Shots is the total sample budget (required; capped at JobMaxShots).
	Shots int `json:"shots"`
	// Seed seeds sampling; omitted means 1. Chunk i draws from
	// rng.Stream(seed, i), so results are reproducible and
	// checkpoint-stable.
	Seed *uint64 `json:"seed,omitempty"`
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
	circ, err := resolveCircuit(spec.QASM, spec.Circuit)
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
	// The circuit is resolved at the door — a job that can never run should
	// be a 400 now, not a failed state later — and its key pinned for the
	// chunks to verify against.
	var req jobSubmitRequest
	circ, err := s.decodeRequest(r, &req, &req.circuitSource)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if req.Shots < 1 {
		s.writeError(w, badRequest{fmt.Errorf("shots must be positive, got %d", req.Shots)})
		return
	}
	if req.Shots > JobMaxShots {
		s.writeError(w, badRequest{fmt.Errorf("shots %d exceeds the per-job cap %d", req.Shots, JobMaxShots)})
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
		Key:      CircuitKey(circ, s.cfg.Norm, false),
		QASM:     req.QASM,
		Circuit:  req.Circuit,
		Qubits:   circ.NQubits,
		Shots:    req.Shots,
		Seed:     *req.Seed,
		Priority: prio,
		Tenant:   req.Tenant,
	}
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
		Counts: countsJSON{counts, qubits},
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
