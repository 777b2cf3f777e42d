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
// version-2 layout. The counts digests are of core.WalkVersion 2, the
// binomial split. Walk version 1's per-shot decoder drew one row's counts
// under both norms even where their thresholds differ in the low bits; the
// split need not, since a binomial draw can take another path when its
// probability moves by one step. The grover_12 rows date from the
// cancellation-residue flush in makeVNode: it took NormL2Phase from 157 to
// 156 nodes, with the counts unchanged, and made NormLeft, which until then
// failed the freeze audit, pinnable.
var goldenDDs = []goldenDD{
	{"qft_16", dd.NormL2Phase, 16, "f770a3d217327ef81821d063796196ea55c1de6a6cad9feff1a19933a89288cc",
		"3dee536ca353a6c8988dc59bf1ea5ca3c7d9ad805ae973d78ade2aa14489788f", false},
	{"qft_16", dd.NormLeft, 16, "74fa3828b7465f5ea1740f309cd8a946e7f70f80f6a9149e520cc5660d39d3eb",
		"34b55ca696ae7cbdbd0c9cd7d89809a47d097b991081853ae3fe528774fba5fb", false},
	{"shor_33_2", dd.NormL2Phase, 49105, "2fb96e554b8773ae72761af4f21e54ae0ebf95b1107e007ec20f38c693676097",
		"60aa11417bd2ad101d82185753bbfd35a1cd1927510af8a48e5d1662a0be2d85", true},
	{"shor_33_2", dd.NormLeft, 49003, "b8db11cd491ebd8c9013a9de9968ed443b3866743b768c1bb251313d2416555e",
		"372d2fd0dfee94e0f5966a46f67da18f7031af7883cf111c7e66efd23c24f88a", true},
	{"jellium_2x2", dd.NormL2Phase, 53, "01579b86c972f2eb05b07b800c2838bb609f62fd569d7fcdae79f6b022d89509",
		"b260d0a96a003322d10ecab2b50b0783988d1c6faca08cab1bebc0667f0a5227", false},
	{"jellium_2x2", dd.NormLeft, 53, "529b75b000137e457f283d279c9ba403b901708a89d9f9c6e0d210d8f6901c7c",
		"b260d0a96a003322d10ecab2b50b0783988d1c6faca08cab1bebc0667f0a5227", false},
	{"supremacy_4x4_10", dd.NormL2Phase, 62349, "b20d639c46762b2342cbc3d0c2e388f5d0f618709b3c346fe52a738c7d4de4b6",
		"27adf55ecb3aa3704feaff9782ee2cd51fa2b49a2659fa53bd90255ca20649e5", true},
	{"supremacy_4x4_10", dd.NormLeft, 54144, "fbb7fec79bc5128c44ee00556b11ec5e9d0d7ac0b1ad73f703e2ad17c16d1053",
		"d1d9eea5c991e1ba28171f860ca6907e76195dbe9c1646b3b64f65647ba34c5a", true},
	{"grover_12", dd.NormL2Phase, 156, "c200f665b7d2a08f0e0b2eacb88ed34543d349ec6387ae33214d54c34d6ff184",
		"67f144cec3af34259591233436c8d7ecd145b407099e2caf91c530011555d613", false},
	{"grover_12", dd.NormLeft, 156, "48638007b7731c46308a2f7cc1a149bd8c4cd804af13349dbd60871cc80aeb88",
		"67f144cec3af34259591233436c8d7ecd145b407099e2caf91c530011555d613", false},
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
