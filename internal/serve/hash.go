package serve

// Canonical circuit hashing: the cache key of the snapshot LRU.
//
// Two requests that describe the same quantum computation must map to the
// same frozen snapshot, or the cache serves no one. The key is therefore a
// hash of the circuit's *semantics*, not its presentation:
//
//   - the circuit name is excluded (qft_16 submitted as QASM hashes the same
//     as qft_16 requested by benchmark name, provided the ops match);
//   - barriers are excluded (they are structural no-ops);
//   - everything that changes the simulated state — register width, gate
//     kinds, exact float64 parameter bits, targets, control polarity, and
//     permutation tables — is hashed, in op order;
//   - the DD normalization scheme is mixed in, because it changes the
//     frozen snapshot's weights and the walk's thresholds (and hence the
//     exact sample stream for a given seed), even though the Born
//     distribution is identical.
//
// The encoding is versioned (hashVersion) so a change to the scheme can
// never silently alias old keys.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"weaksim/internal/circuit"
	"weaksim/internal/dd"
)

// hashVersion tags the canonical encoding; bump on any layout change.
const hashVersion = 1

// CircuitKey returns the canonical cache key for a circuit simulated under
// the given normalization scheme. The key is a hex-encoded SHA-256, stable
// across processes and architectures. Every caller passes generic false:
// the sampler has one branch rule, and the flag's zero byte stays in the
// key so keys do not move.
func CircuitKey(c *circuit.Circuit, norm dd.Norm, generic bool) string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wi := func(v int) { wu(uint64(int64(v))) }
	wf := func(v float64) { wu(math.Float64bits(v)) }

	wu(uint64(hashVersion))
	wi(int(norm))
	if generic {
		wu(1)
	} else {
		wu(0)
	}
	wi(c.NQubits)
	for _, op := range c.Ops {
		switch op.Kind {
		case circuit.BarrierOp:
			continue // structural no-op: excluded from the key
		case circuit.GateOp:
			wu(0xA1) // op-kind tag
			wi(int(op.Gate.Kind))
			for _, p := range op.Gate.Params {
				wf(p)
			}
			wi(op.Target)
			wi(len(op.Controls))
			for _, ctl := range op.Controls {
				wi(ctl.Qubit)
				if ctl.Negative {
					wu(1)
				} else {
					wu(0)
				}
			}
		case circuit.PermutationOp:
			wu(0xA2)
			wi(op.PermWidth)
			wi(len(op.Perm))
			for _, p := range op.Perm {
				wu(p)
			}
			wi(len(op.Controls))
			for _, ctl := range op.Controls {
				wi(ctl.Qubit)
				if ctl.Negative {
					wu(1)
				} else {
					wu(0)
				}
			}
		default:
			// Unknown op kinds cannot be canonicalized; hash the raw kind so
			// the key at least never aliases a known circuit. Validation
			// rejects these before simulation anyway.
			wu(0xFF)
			wi(int(op.Kind))
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:])
}

// KeyForBody computes the canonical circuit key for a raw /v1/sample request
// body without simulating anything: it decodes just the circuit description
// (qasm or named benchmark), builds the circuit, and hashes it under norm.
//
// This is the cluster router's routing function — the router must place a
// request on the ring before any replica sees it, using exactly the key the
// replica's cache will use, or routing and caching would disagree about
// which backend owns a circuit. Unknown body fields are ignored here (the
// replica still enforces its full request schema); a body whose circuit
// cannot be built fails with an error the router reports as HTTP 400.
func KeyForBody(body []byte, norm dd.Norm) (string, error) {
	var src circuitSource
	if err := json.Unmarshal(body, &src); err != nil {
		return "", fmt.Errorf("invalid JSON body: %w", err)
	}
	circ, err := resolveCircuit(src.QASM, src.Circuit)
	if err != nil {
		return "", err
	}
	return CircuitKey(circ, norm, false), nil
}
