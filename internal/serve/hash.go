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
//   - the DD normalization scheme is mixed in, by its wire code
//     (dd.Norm.Wire, so keys did not move when NormL2Phase became the
//     zero value), because it changes the frozen snapshot's weights and
//     the walk's thresholds (and hence the exact sample stream for a
//     given seed), even though the Born distribution is identical.
//
// The encoding is versioned (hashVersion) so a change to the scheme can
// never silently alias old keys.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"weaksim/internal/circuit"
	"weaksim/internal/dd"
	"weaksim/internal/gate"
)

// hashVersion tags the canonical encoding; bump on any layout change.
const hashVersion = 1

// CircuitKey returns the canonical cache key for a circuit simulated under
// the given normalization scheme. The key is a hex-encoded SHA-256, stable
// across processes and architectures. Every caller passes generic false:
// the sampler has one branch rule, and the flag's zero byte stays in the
// key so keys do not move.
func CircuitKey(c *circuit.Circuit, norm dd.Norm, generic bool) string {
	k := keyWriter{h: sha256.New()}
	k.word(hashVersion)
	k.signed(int(norm.Wire()))
	k.flag(generic)
	k.signed(c.NQubits)
	for _, op := range c.Ops {
		switch op.Kind {
		case circuit.BarrierOp:
			continue // structural no-op: excluded from the key
		case circuit.GateOp:
			k.word(0xA1) // op-kind tag
			k.signed(int(op.Gate.Kind))
			for _, p := range op.Gate.Params {
				k.word(math.Float64bits(p))
			}
			k.signed(op.Target)
			k.controls(op.Controls)
		case circuit.PermutationOp:
			k.word(0xA2)
			k.signed(op.PermWidth)
			k.signed(len(op.Perm))
			for _, p := range op.Perm {
				k.word(p)
			}
			k.controls(op.Controls)
		default:
			// Unknown op kinds cannot be canonicalized; hash the raw kind so
			// the key at least never aliases a known circuit. Validation
			// rejects these before simulation anyway.
			k.word(0xFF)
			k.signed(int(op.Kind))
		}
	}
	k.h.Write(k.buf[:k.n])
	sum := k.h.Sum(k.buf[:0]) // the staged words are hashed: buf holds the digest, then its hex

	return string(hex.AppendEncode(k.buf[len(sum):len(sum)], sum))
}

// keyWriter stages the key's little-endian 8-byte words and hands the hash
// whole buffers, not one word per call.
type keyWriter struct {
	h   hash.Hash
	n   int
	buf [512]byte
}

func (k *keyWriter) word(v uint64) {
	if k.n == len(k.buf) {
		k.h.Write(k.buf[:])
		k.n = 0
	}
	binary.LittleEndian.PutUint64(k.buf[k.n:], v)
	k.n += 8
}

func (k *keyWriter) signed(v int) { k.word(uint64(int64(v))) }

func (k *keyWriter) flag(b bool) {
	if b {
		k.word(1)
	} else {
		k.word(0)
	}
}

func (k *keyWriter) controls(ctls []gate.Control) {
	k.signed(len(ctls))
	for _, ctl := range ctls {
		k.signed(ctl.Qubit)
		k.flag(ctl.Negative)
	}
}
