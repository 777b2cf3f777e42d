// Package cluster scales the sampling daemon horizontally: a router in
// front of N weaksimd replicas that places every circuit on the backend
// fleet by consistent-hashing its canonical circuit hash (internal/serve's
// CircuitKey), so each circuit's frozen snapshot lives hot on exactly one
// primary plus a configurable number of replicas.
//
// The paper's freeze-then-sample split (Hillmich, Markov, Wille, DAC 2020)
// is what makes this tier work: the expensive operation — strong simulation
// plus freeze — produces an immutable artifact that samples in O(n) per
// shot, stateless and lock-free. That artifact, not the request, is the unit
// of distribution. The router therefore does three things and nothing else:
//
//   - routing: consistent hashing keeps a circuit's requests landing on the
//     same replica so its snapshot stays hot in exactly one LRU (plus the
//     configured replica count), and membership changes move only ~1/N of
//     the keyspace;
//   - health: periodic /readyz probes with ejection after consecutive
//     failures and exponential-backoff reinstatement, so a dead or draining
//     replica leaves the ring within a probe window;
//   - shipping: when ring assignment changes (a replica died, a backend
//     joined), the snapshot is copied from a warm replica via
//     GET/PUT /v1/snapshot/{hash} — the snapstore wire codec, CRC trailer
//     and all — instead of being rebuilt by a second strong simulation.
//
// Failover is deliberately narrow: transport-level failures and 502/503
// responses fail over to the next ring candidate, while 507 (MO), 504 (TO),
// and 500 never do — the governance ladder says MO/TO are deterministic
// properties of the circuit, and a 500 means the request already reached a
// sim worker, so re-sending it could only duplicate the expensive work.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVirtualNodes is the per-backend virtual-node count. 64 points per
// backend keeps the ownership spread within a few percent of ideal for small
// fleets while the ring stays tiny (a 100-replica fleet is 6400 points,
// ~100 KiB).
const defaultVirtualNodes = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle owned
// by a backend.
type ringPoint struct {
	hash  uint64
	owner int // index into ring.members
}

// ring is an immutable consistent-hash ring over a backend membership.
// Membership changes build a new ring; lookups never lock.
type ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

// hashKey positions a circuit key or virtual-node label on the circle:
// FNV-1a folded to 64 bits, then pushed through a SplitMix64 finalizer. The
// finalizer matters — the vnode labels ("url#0", "url#1", ...) differ in a
// few trailing bytes, and raw FNV leaves their hashes correlated enough to
// visibly skew arc ownership; the avalanche step spreads them uniformly.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildRing places defaultVirtualNodes virtual nodes per member on the
// circle. Members are deduplicated and sorted first so the ring is a pure
// function of the membership set — two routers configured with the same
// backends in any order agree on every placement.
func buildRing(members []string) *ring {
	uniq := make(map[string]bool, len(members))
	var sorted []string
	for _, m := range members {
		if m != "" && !uniq[m] {
			uniq[m] = true
			sorted = append(sorted, m)
		}
	}
	sort.Strings(sorted)
	r := &ring{members: sorted, points: make([]ringPoint, 0, len(sorted)*defaultVirtualNodes)}
	for i, m := range sorted {
		for v := 0; v < defaultVirtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("%s#%d", m, v)),
				owner: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// lookup returns the first n distinct members clockwise from key's position:
// the primary followed by its failover/replication candidates. Fewer than n
// members yields all of them. The order is deterministic for a fixed
// membership, which is the property routing, replication, and failover all
// share — they walk the same candidate list.
func (r *ring) lookup(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.owner] {
			seen[p.owner] = true
			out = append(out, r.members[p.owner])
		}
	}
	return out
}

// ownership returns each member's share of the hash circle in [0,1] — the
// fraction of circuit keys it is primary for. Exposed as a per-backend
// gauge so operators can see placement skew directly instead of inferring
// it from request counts.
func (r *ring) ownership() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	const circle = float64(1<<63) * 2 // 2^64 without overflowing
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc := p.hash - prev // wraps correctly in uint64 arithmetic
		if len(r.points) == 1 {
			arc = ^uint64(0)
		}
		out[r.members[p.owner]] += float64(arc) / circle
	}
	return out
}
