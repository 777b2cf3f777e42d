package snapstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reframe applies edit to an Encode frame's payload and recomputes the CRC
// trailer, so the frame is intact — exactly what a peer running another
// build would produce.
func reframe(t *testing.T, frame []byte, edit func(payload []byte)) []byte {
	t.Helper()
	if len(frame) < 16 {
		t.Fatal("frame too short to reframe")
	}
	payload := append([]byte{}, frame[:len(frame)-8]...)
	edit(payload)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc64.Checksum(payload, crcTable))
	return append(payload, trailer[:]...)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	dec, err := Decode(Encode(snap))
	if err != nil {
		t.Fatalf("Decode(Encode(snap)): %v", err)
	}
	if dec.Len() != snap.Len() || dec.Root() != snap.Root() || dec.RootWeight() != snap.RootWeight() {
		t.Fatal("wire round trip diverges from the source snapshot")
	}
	// A frame is the 35-byte header, 44 bytes a node and the 8-byte CRC.
	if got, want := len(Encode(snap)), 35+44*snap.Len()+8; got != want {
		t.Fatalf("frame of %d nodes is %d bytes, want %d", snap.Len(), got, want)
	}
}

// v1Frame is a store frame written by codec version 1, the layout that
// also carried each node's branch threshold, a generic-rule flag and the
// downstream/upstream masses: testSnapshot as an earlier build persisted it.
func v1Frame(t *testing.T) []byte {
	t.Helper()
	frame, err := os.ReadFile(filepath.Join("testdata", "running_example_v1.wsnap"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(frame[4:]); v != 1 {
		t.Fatalf("testdata frame claims version %d, want 1", v)
	}
	return frame
}

// skewedFrames are intact frames this build must refuse as version skew:
// one from the retired version 1, one from a newer version, and one frozen
// under the retired normalization scheme, wire code 1.
func skewedFrames(t *testing.T) map[string][]byte {
	return map[string][]byte{
		"version 1": v1Frame(t),
		"version 99": reframe(t, Encode(testSnapshot(t)), func(p []byte) {
			binary.LittleEndian.PutUint16(p[4:], 99)
		}),
		"norm code 1": reframe(t, Encode(testSnapshot(t)), func(p []byte) { p[6] = 1 }),
	}
}

func TestDecodeVersionMismatchTyped(t *testing.T) {
	for name, frame := range skewedFrames(t) {
		_, err := Decode(frame)
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: Decode: %v, want ErrVersionMismatch", name, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: version mismatch must not read as corruption: %v", name, err)
		}
	}
	// Genuine damage still classifies as corruption, not version skew.
	bad := Encode(testSnapshot(t))
	bad[len(bad)-1] ^= 0x40
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of damaged frame: %v, want ErrCorrupt", err)
	}
}

// TestGetVersionMismatchNotQuarantined: a stored snapshot written by another
// codec version — the retired version 1 or a newer one — reads as a typed
// miss and the file survives untouched: a binary of that version sharing
// the directory can still use it, and this process simply re-simulates the
// circuit.
func TestGetVersionMismatchNotQuarantined(t *testing.T) {
	for name, frame := range skewedFrames(t) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(st.Dir(), testKey+ext)
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}

		_, err = st.Get(testKey)
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: Get: %v, want ErrVersionMismatch", name, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Get classified version skew as corruption: %v", name, err)
		}
		entries, _ := os.ReadDir(st.Dir())
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), corruptExt) {
				t.Fatalf("%s: version-mismatched file was quarantined as %s", name, e.Name())
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("%s: original file changed or gone: %v", name, err)
		}
	}
}
