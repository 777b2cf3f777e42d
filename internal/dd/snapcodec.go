package dd

// Binary snapshot codec.
//
// A Snapshot is already flat data — int32 indices and value structs — so
// its on-disk form is a direct little-endian image of the
// arrays behind a small versioned header. The codec lives in package dd
// because the Snapshot fields are deliberately unexported; the persistence
// layer (internal/snapstore) wraps these bytes in integrity framing (CRC
// trailer, atomic rename) but never looks inside them.
//
// DecodeSnapshot is defensive — it is fuzzed (FuzzSnapshotDecode) and must
// return an error, never panic or over-allocate, on arbitrary input. It
// validates framing and array geometry only; semantic integrity (levels,
// post-order, normalization, total mass) is Snapshot.Verify's job, which
// the store runs on every load.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"weaksim/internal/cnum"
)

// snapMagic brands snapshot encodings; snapVersion gates layout changes.
// Version 1 also carried each node's branch threshold, a generic-rule flag
// and the downstream/upstream masses; version 2 is the DD alone.
const (
	snapMagic   = "WSNP"
	snapVersion = 2
)

// snapNodeBytes is the encoded size of one SnapNode:
// Kid[2]×int32 + W[2]×(Re,Im float64) + V int32.
const snapNodeBytes = 8 + 32 + 4

// snapHeaderBytes is the fixed prefix before the node array:
// magic + version uint16 + norm uint8 (Norm.Wire) + nqubits uint32 +
// root int32 + rootW (Re,Im float64) + node count uint32.
const snapHeaderBytes = 4 + 2 + 1 + 4 + 4 + 16 + 4

// ErrSnapshotEncoding reports malformed snapshot bytes; detect with
// errors.Is. Framing errors wrap it, so the persistence layer can separate
// "not a snapshot" from I/O failure.
var ErrSnapshotEncoding = errors.New("dd: malformed snapshot encoding")

// ErrSnapshotVersion reports a well-framed snapshot written by a different
// codec version than this build reads, or under a normalization scheme it
// does not simulate. It wraps ErrSnapshotEncoding (the bytes are still
// undecodable here) but is separately detectable so a mixed-version cluster
// can tell "peer runs a newer codec" apart from corruption: the persistence
// layer must not quarantine such files, and the shipping layer must fall
// back to re-simulation instead of retrying.
var ErrSnapshotVersion = errors.New("dd: snapshot codec version mismatch")

// EncodeSnapshot serializes the snapshot to its versioned little-endian
// binary form. The encoding is deterministic: equal snapshots produce equal
// bytes, which lets the persistence layer hash and checksum them stably.
func EncodeSnapshot(s *Snapshot) []byte {
	n := len(s.nodes)
	buf := make([]byte, 0, snapHeaderBytes+n*snapNodeBytes)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, snapVersion)
	buf = append(buf, s.norm.Wire())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.nqubits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.root))
	buf = appendComplex(buf, s.rootW)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i := range s.nodes {
		nd := &s.nodes[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.Kid[0]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.Kid[1]))
		buf = appendComplex(buf, nd.W[0])
		buf = appendComplex(buf, nd.W[1])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.V))
	}
	return buf
}

// DecodeSnapshot parses bytes produced by EncodeSnapshot. It performs only
// structural validation (framing, version, normalization code, exact
// length); callers that will sample from the result must also run Verify —
// corrupted-but-well-framed bytes decode fine and fail there.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < snapHeaderBytes {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrSnapshotEncoding, len(data))
	}
	if string(data[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotEncoding, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != snapVersion {
		return nil, fmt.Errorf("%w (%w): version %d, this build reads %d",
			ErrSnapshotVersion, ErrSnapshotEncoding, v, snapVersion)
	}
	norm := slices.Index(wireCodes[:], data[6])
	if norm < 0 {
		return nil, fmt.Errorf("%w (%w): normalization code %d, this build reads %v",
			ErrSnapshotVersion, ErrSnapshotEncoding, data[6], wireCodes)
	}
	s := &Snapshot{
		norm:    Norm(norm),
		nqubits: int(binary.LittleEndian.Uint32(data[7:])),
	}
	s.root = int32(binary.LittleEndian.Uint32(data[11:]))
	s.rootW = readComplex(data[15:])
	n := int(binary.LittleEndian.Uint32(data[31:]))

	// Geometry gate before any allocation: the declared node count must
	// account for the remaining bytes exactly, which also bounds n by the
	// input length (no attacker-controlled huge make).
	if s.nqubits < 1 || s.nqubits > MaxQubits {
		return nil, fmt.Errorf("%w: %d qubits", ErrSnapshotEncoding, s.nqubits)
	}
	want := snapHeaderBytes + n*snapNodeBytes
	if n < 0 || len(data) != want {
		return nil, fmt.Errorf("%w: %d bytes for %d nodes, want %d", ErrSnapshotEncoding, len(data), n, want)
	}

	s.nodes = make([]SnapNode, n)
	off := snapHeaderBytes
	for i := 0; i < n; i++ {
		nd := &s.nodes[i]
		nd.Kid[0] = int32(binary.LittleEndian.Uint32(data[off:]))
		nd.Kid[1] = int32(binary.LittleEndian.Uint32(data[off+4:]))
		nd.W[0] = readComplex(data[off+8:])
		nd.W[1] = readComplex(data[off+24:])
		nd.V = int32(binary.LittleEndian.Uint32(data[off+40:]))
		off += snapNodeBytes
	}
	return s, nil
}

func appendComplex(buf []byte, c cnum.Complex) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Re))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Im))
}

func readComplex(b []byte) cnum.Complex {
	return cnum.Complex{
		Re: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		Im: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
}
