package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/dd"
)

// goldenDD pins the frozen DD of one benchmark row under one normalization:
// the snapshot's node count and the SHA-256 of its dd.EncodeSnapshot bytes.
type goldenDD struct {
	name  string
	norm  dd.Norm
	nodes int
	sha   string
	slow  bool // skipped under -short
}

// goldenDDs were captured at commit 2a195b4, before weight canonicalization
// became a stateless function, and must never change: any engine edit that
// moves one of them changes the DDs, snapshots and counts the system
// serves. grover_12 under NormLeft fails the freeze audit and is left out.
var goldenDDs = []goldenDD{
	{"qft_16", dd.NormL2Phase, 16, "6908039125e0d207c393eead2dde99f819aab6aad7e6b1da457d9ff757cdbd8d", false},
	{"qft_16", dd.NormLeft, 16, "f8365a88b26176e21e9c0cc0508fe321a9223806e5781fe4e0c606264378f617", false},
	{"shor_33_2", dd.NormL2Phase, 49105, "a9fd6226e83627bc62cdf22411cad154ee7a2035c34caa295e2fac0a0680e615", true},
	{"shor_33_2", dd.NormLeft, 49003, "7085ae9d2d54755a78f152e64cc8a5bed6d34b07f5dd052374b1a2c3e93378e0", true},
	{"jellium_2x2", dd.NormL2Phase, 53, "2f2a779bf6d28afa8a90367ec87dc2f4ac5e770e664b55f8d4512a7444eb0826", false},
	{"jellium_2x2", dd.NormLeft, 53, "47ce7f69ba40a1bdb8df1c682f28d8bb1c8ea825698957d2ca571b7800b1e7ec", false},
	{"supremacy_4x4_10", dd.NormL2Phase, 62349, "c3a0ace18705c07cc53b3d120c14f59ec79e658fb314be9a384eaad204550724", true},
	{"supremacy_4x4_10", dd.NormLeft, 54144, "0491915c1121715f0fe0d2ecbaa33e575bac8660ca421b401674a929986505f8", true},
	{"grover_12", dd.NormL2Phase, 157, "51b400f9cef8e8e8b6ba9b07b616ea6abae903045512477967f0f0e9fd4b1b68", false},
}

// TestGoldenDDIdentity proves the engine bit-identical across changes that
// promise so. Node counts are pinned on every architecture. Digests are
// pinned on amd64 only: elsewhere the Go compiler may fuse a multiply and
// an add into one instruction, which rounds once instead of twice and can
// move a weight by one grid step.
func TestGoldenDDIdentity(t *testing.T) {
	for _, g := range goldenDDs {
		g := g
		t.Run(g.name+"/"+g.norm.String(), func(t *testing.T) {
			if g.slow && testing.Short() {
				t.Skip("slow row under -short")
			}
			c, err := algo.Generate(g.name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewDD(c, WithManagerOptions(dd.WithNormalization(g.norm)))
			if err != nil {
				t.Fatal(err)
			}
			state, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := s.Manager().Freeze(state)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(dd.EncodeSnapshot(snap))
			sha := hex.EncodeToString(sum[:])
			if snap.Len() != g.nodes {
				t.Errorf("snapshot has %d nodes, want %d", snap.Len(), g.nodes)
			}
			if runtime.GOARCH == "amd64" && sha != g.sha {
				t.Errorf("snapshot SHA-256 %s, want %s", sha, g.sha)
			}
		})
	}
}
