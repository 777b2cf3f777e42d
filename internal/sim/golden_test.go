package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/core"
	"weaksim/internal/dd"
)

// goldenDD pins the frozen DD of one benchmark row under one normalization:
// the snapshot's node count, the SHA-256 of its dd.EncodeSnapshot bytes, and
// the SHA-256 of goldenShots counts drawn at goldenSeed (see countsDigest).
type goldenDD struct {
	name   string
	norm   dd.Norm
	nodes  int
	sha    string
	counts string
	slow   bool // skipped under -short
}

// goldenSeed and goldenShots fix the counts each row's digest pins: one
// sampling chunk.
const (
	goldenSeed  = 2020
	goldenShots = 65536
)

// goldenDDs must never change: any engine edit that moves one of them
// changes the DDs, snapshots and counts the system serves. The node counts
// date from commit 2a195b4, before weight canonicalization became a
// stateless function. The snapshot digests are of codec version 2: each
// equals the version-1 snapshot of commit a275163 re-encoded in the
// version-2 layout. The counts digests were captured at a275163.
// grover_12 under NormLeft fails the freeze audit and is left out.
var goldenDDs = []goldenDD{
	{"qft_16", dd.NormL2Phase, 16, "f770a3d217327ef81821d063796196ea55c1de6a6cad9feff1a19933a89288cc",
		"5d16b86f82749430faa22dac2be39b21660d42c45a6a902a961e3b7bf8af845a", false},
	{"qft_16", dd.NormLeft, 16, "74fa3828b7465f5ea1740f309cd8a946e7f70f80f6a9149e520cc5660d39d3eb",
		"5d16b86f82749430faa22dac2be39b21660d42c45a6a902a961e3b7bf8af845a", false},
	{"shor_33_2", dd.NormL2Phase, 49105, "2fb96e554b8773ae72761af4f21e54ae0ebf95b1107e007ec20f38c693676097",
		"d1b3f78c2e19aa134b1352571bcc5ee5faeba1458b72b5fc5ac98ffb2ed6ac93", true},
	{"shor_33_2", dd.NormLeft, 49003, "b8db11cd491ebd8c9013a9de9968ed443b3866743b768c1bb251313d2416555e",
		"d1b3f78c2e19aa134b1352571bcc5ee5faeba1458b72b5fc5ac98ffb2ed6ac93", true},
	{"jellium_2x2", dd.NormL2Phase, 53, "01579b86c972f2eb05b07b800c2838bb609f62fd569d7fcdae79f6b022d89509",
		"3476eb78bec6d08fcf56cb352608aec549425ab0167cbbd7a5634d05ec6d3b2c", false},
	{"jellium_2x2", dd.NormLeft, 53, "529b75b000137e457f283d279c9ba403b901708a89d9f9c6e0d210d8f6901c7c",
		"3476eb78bec6d08fcf56cb352608aec549425ab0167cbbd7a5634d05ec6d3b2c", false},
	{"supremacy_4x4_10", dd.NormL2Phase, 62349, "b20d639c46762b2342cbc3d0c2e388f5d0f618709b3c346fe52a738c7d4de4b6",
		"cb145d579502928ae446aa73fa9aaf4b7b92f33378f13d4d837ee53781296e4a", true},
	{"supremacy_4x4_10", dd.NormLeft, 54144, "fbb7fec79bc5128c44ee00556b11ec5e9d0d7ac0b1ad73f703e2ad17c16d1053",
		"cb145d579502928ae446aa73fa9aaf4b7b92f33378f13d4d837ee53781296e4a", true},
	{"grover_12", dd.NormL2Phase, 157, "17e7dee66784a7b65222ab2322790efeeaef4853c647cadc1d85ace41cac119e",
		"c8a84325cc27f787829a76e081c556b68e550d1d609e6dd5096c5ae160d99fd3", false},
}

// countsDigest is the SHA-256 of counts as (index, count) pairs of
// little-endian uint64s in ascending index order.
func countsDigest(counts map[uint64]int) string {
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := sha256.New()
	var pair [16]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(pair[:], k)
		binary.LittleEndian.PutUint64(pair[8:], uint64(counts[k]))
		h.Write(pair[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDDIdentity proves the engine and the sampler bit-identical
// across changes that promise so. Node counts are pinned on every
// architecture. Digests are pinned on amd64 only: elsewhere the Go compiler
// may fuse a multiply and an add into one instruction, which rounds once
// instead of twice and can move a weight, or a threshold, by one step.
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
			if runtime.GOARCH != "amd64" {
				return
			}
			if sha != g.sha {
				t.Errorf("snapshot SHA-256 %s, want %s", sha, g.sha)
			}
			fs, err := core.NewFrozenSampler(snap)
			if err != nil {
				t.Fatal(err)
			}
			counts, err := core.CountsParallel(fs, goldenSeed, goldenShots, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := countsDigest(counts); got != g.counts {
				t.Errorf("counts SHA-256 %s, want %s", got, g.counts)
			}
		})
	}
}
