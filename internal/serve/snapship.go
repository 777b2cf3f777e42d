package serve

// Snapshot shipping: the replica-to-replica transfer surface.
//
//	GET /v1/snapshot/{hash}  → the frozen snapshot for a canonical circuit
//	                           hash, framed in the snapstore wire codec
//	                           (versioned dd image + CRC-64 trailer), served
//	                           from the LRU; 404 when cold.
//	PUT /v1/snapshot/{hash}  → decode, CRC-check, invariant-audit, and
//	                           install a shipped snapshot into the LRU (and
//	                           the on-disk store when configured); 204 on
//	                           success, 409 on codec version mismatch, 400 on
//	                           a frame that fails any integrity layer.
//
// The paper's freeze-then-sample split makes the frozen snapshot the natural
// unit of work distribution: building one is the expensive strong
// simulation, sampling from one is cheap and stateless. Shipping moves the
// built artifact instead of rebuilding it, so a cluster whose ring
// assignment changes (a replica died, a backend joined) pays one network
// copy rather than a second strong simulation. The wire format is exactly
// the snapstore file format, so shipping inherits the persistence layer's
// integrity ladder for free — and a peer running a newer codec fails clean
// with a typed version_mismatch instead of reading as corruption.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"weaksim/internal/snapstore"
)

// snapshotPathPrefix is the shipping route; the suffix is the canonical
// circuit hash.
const snapshotPathPrefix = "/v1/snapshot/"

// maxSnapshotFrameBytes bounds a PUT body: the configured cache capacity
// plus framing slack — nothing larger could be admitted usefully anyway.
func (s *Server) maxSnapshotFrameBytes() int64 {
	return s.cfg.CacheBytes + (1 << 20)
}

// snapshotKey extracts and validates the {hash} path element. Keys are
// canonical circuit hashes (lowercase hex SHA-256); anything else is
// rejected before it can touch the cache or the store.
func snapshotKey(path string) (string, error) {
	key := strings.TrimPrefix(path, snapshotPathPrefix)
	if key == "" || len(key) > 128 || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("invalid snapshot key %q", key)
	}
	for _, r := range key {
		ok := r == '-' || r == '_' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return "", fmt.Errorf("invalid snapshot key %q", key)
		}
	}
	return key, nil
}

// handleSnapshot dispatches the shipping route by method.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	key, err := snapshotKey(r.URL.Path)
	if err != nil {
		s.writeError(w, badRequest{err})
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.handleSnapshotGet(w, key)
	case http.MethodPut:
		s.handleSnapshotPut(w, r, key)
	default:
		w.Header().Set("Allow", "GET, PUT")
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: errorInfo{
			Code: "method_not_allowed", Message: "use GET or PUT", Status: http.StatusMethodNotAllowed}})
	}
}

// handleSnapshotGet serves a resident snapshot in the wire frame. Only the
// LRU is consulted — a router asking a cold replica should hear "cold" and
// go simulate, not trigger disk traffic on the serving path.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, key string) {
	ent := s.cache.peek(key)
	if ent == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: errorInfo{
			Code: "snapshot_not_found", Message: "no resident snapshot for " + key,
			Status: http.StatusNotFound}})
		return
	}
	frame := snapstore.Encode(ent.sampler.Snapshot())
	s.snapServed.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Weaksim-Snapshot-Nodes", fmt.Sprint(ent.sampler.Snapshot().Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}

// handleSnapshotPut installs a shipped snapshot after running the full
// integrity ladder (CRC, structural decode, invariant audit). The install
// path mirrors the warm-restart path: the entry enters the LRU exactly as if
// this replica had simulated it, with simNS 0 (the cost was paid elsewhere).
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request, key string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxSnapshotFrameBytes()))
	if err != nil {
		s.snapRejects.Inc()
		s.writeError(w, badRequest{fmt.Errorf("reading snapshot frame: %w", err)})
		return
	}
	snap, err := snapstore.Decode(body)
	if err != nil {
		s.snapRejects.Inc()
		if errors.Is(err, snapstore.ErrVersionMismatch) {
			// Mixed-version cluster: the frame is intact but this build cannot
			// read it. 409 tells the shipper "stop retrying, let the target
			// re-simulate" — deterministic, like 507/504.
			writeJSON(w, http.StatusConflict, errorBody{Error: errorInfo{
				Code: "version_mismatch", Message: err.Error(), Status: http.StatusConflict}})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: errorInfo{
			Code: "snapshot_corrupt", Message: err.Error(), Status: http.StatusBadRequest}})
		return
	}
	ent, err := newEntry(key, snap)
	if err != nil {
		s.snapRejects.Inc()
		s.writeError(w, badRequest{fmt.Errorf("installing snapshot: %w", err)})
		return
	}
	s.cache.insert(ent)
	s.persist(key, snap)
	s.snapInstalls.Inc()
	w.WriteHeader(http.StatusNoContent)
}
