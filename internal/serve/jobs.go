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

	"weaksim/internal/circuit"
	"weaksim/internal/core"
	"weaksim/internal/job"
)

// JobMaxShots caps a single job's shot budget (distinct from the
// per-request MaxShots: jobs exist precisely to exceed it).
const JobMaxShots = 1 << 30

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
//
// A spelling the memo holds gives the key and the entry without resolving
// the circuit; its key is still checked against the spec's. The spec holds
// its source unescaped, so a chunk spells it in one canonical escaping
// (quote), which its first miss remembers for the chunks after it.
func (s *Server) jobSnapshot(ctx context.Context, spec job.Spec) (core.Sampler, error) {
	src := spelling{qasm: quote(spec.QASM), circuit: quote(spec.Circuit)}
	var key string
	var circ *circuit.Circuit
	ent, ok := s.cache.getBySpelling(src)
	if ok {
		key = ent.key
	} else {
		var err error
		if circ, err = resolveCircuit(spec.QASM, spec.Circuit); err != nil {
			return nil, &job.VerdictError{Code: "bad_circuit", Err: err}
		}
		key = CircuitKey(circ, s.cfg.Norm, false)
	}
	if key != spec.Key {
		// The WAL outlived a config change (norm, hashing codec): refusing is
		// the only answer that keeps "same job ID → same counts" true.
		return nil, &job.VerdictError{
			Code: "config_changed",
			Err: fmt.Errorf("serve: circuit key drifted: spec has %s, server computes %s",
				spec.Key, key),
		}
	}
	if ok {
		return ent.sampler, nil
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
	// The spec passed MaxQubits at submit, but perhaps under an earlier
	// process's configuration: the memo holds only spellings this one
	// accepts.
	if circ.NQubits <= s.cfg.MaxQubits {
		s.cache.remember(src, ent)
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
	// chunks to verify against. The body's members are "qasm" or "circuit",
	// "shots" (required, capped at JobMaxShots), "seed" (default 1; chunk i
	// draws from rng.Stream(seed, i)), "priority" ("high", "normal" by
	// default, or "low") and "tenant" (default "default", for fair-share
	// weights and quotas).
	req, buf, err := s.scanRequest(r, jobMembers)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer putBody(buf)
	// A submit times no phases; its chunks time theirs. It needs the key,
	// not the snapshot, so a remembered spelling counts as no cache hit and
	// keeps its entry's place in the LRU.
	key, ent, circ, err := s.keyFor(nil, nil, req.spelling, s.cache.spelled)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var qubits int
	if ent != nil {
		qubits = ent.qubits
	} else {
		qubits = circ.NQubits
	}
	if req.shots < 1 {
		s.writeError(w, badRequest{fmt.Errorf("shots must be positive, got %d", req.shots)})
		return
	}
	if req.shots > JobMaxShots {
		s.writeError(w, badRequest{fmt.Errorf("shots %d exceeds the per-job cap %d", req.shots, JobMaxShots)})
		return
	}
	prio, err := job.ParsePriority(req.priority)
	if err != nil {
		s.writeError(w, badRequest{err})
		return
	}
	if !req.seeded {
		req.seed = 1
	}
	// The spec keeps its source unescaped, as the WAL records it.
	src, name, err := req.decode()
	if err != nil {
		s.writeError(w, badRequest{err})
		return
	}
	spec := job.Spec{
		Key:      key,
		QASM:     src,
		Circuit:  name,
		Qubits:   qubits,
		Shots:    req.shots,
		Seed:     req.seed,
		Priority: prio,
		Tenant:   req.tenant,
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
