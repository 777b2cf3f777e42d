package core

import (
	"maps"
	"math"
	"slices"
	"testing"

	"weaksim/internal/dd"
	"weaksim/internal/rng"
)

// groupPairs counts g's first k entries through Tally.group into a fresh
// run and returns the run's pairs.
func groupPairs(g [splitMax]uint64, k int) [][2]uint64 {
	t := &Tally{}
	t.newRun(splitMax)
	t.group(&g, k)
	return ascending(t)
}

// refPairs is the reference for groupPairs: g[:k] sorted by the standard
// library and its repeats counted.
func refPairs(g []uint64) [][2]uint64 {
	s := slices.Clone(g)
	slices.Sort(s)
	var out [][2]uint64
	for _, v := range s {
		if k := len(out) - 1; k >= 0 && out[k][0] == v {
			out[k][1]++
		} else {
			out = append(out, [2]uint64{v, 1})
		}
	}
	return out
}

// TestGroupNetworkZeroOne checks the group's sorting networks by the 0-1
// principle: a comparator network sorts every input if it sorts every
// input of zeros and ones. For every group width up to splitMax, every 0-1
// input, padded as group pads it, comes out as its zeros, then its ones;
// at widths 8 and 16 the networks run unpadded, so this covers each
// network on all of its 0-1 inputs.
func TestGroupNetworkZeroOne(t *testing.T) {
	if len(net8) != 19 || len(net16) != 63 {
		t.Fatalf("networks have %d and %d comparators, want Batcher's 19 and 63", len(net8), len(net16))
	}
	for k := 1; k <= splitMax; k++ {
		for mask := 0; mask < 1<<k; mask++ {
			var g [splitMax]uint64
			ones := 0
			for i := range k {
				g[i] = uint64(mask >> i & 1)
				ones += mask >> i & 1
			}
			var want [][2]uint64
			if ones < k {
				want = append(want, [2]uint64{0, uint64(k - ones)})
			}
			if ones > 0 {
				want = append(want, [2]uint64{1, uint64(ones)})
			}
			if got := groupPairs(g, k); !slices.Equal(got, want) {
				t.Fatalf("width %d, input %0*b: %v, want %v", k, k, mask, got, want)
			}
		}
	}
}

// TestGroupRandom: groups of random widths over random indices with
// repeats, among them real MaxUint64 indices (a 64-qubit all-ones outcome)
// beside the MaxUint64 padding, count as sorting and counting them does.
func TestGroupRandom(t *testing.T) {
	r := rng.New(5)
	pool := []uint64{0, 1, 2, 1 << 63, math.MaxUint64 - 1, math.MaxUint64, math.MaxUint64}
	for trial := range 20000 {
		k := 1 + int(r.Uint64N(splitMax))
		var g [splitMax]uint64
		for i := range k {
			if r.Uint64N(2) == 0 {
				g[i] = pool[r.Uint64N(uint64(len(pool)))]
			} else {
				g[i] = r.Uint64() >> r.Uint64N(64)
			}
		}
		want := refPairs(g[:k])
		if got := groupPairs(g, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d, %v: %v, want %v", trial, g[:k], got, want)
		}
	}
}

// walkSplit is the split as it tallied before groups: the same binomial
// draws, then one descend per shot of a node reached by at most splitMax
// shots, in shot order, each counted in a map.
func walkSplit(fs *FrozenSampler, r *rng.RNG, cur int32, levels int, prefix uint64, n int, counts map[uint64]int) {
	if levels == 0 {
		counts[prefix] += n
		return
	}
	if n <= splitMax {
		for range n {
			counts[prefix<<levels|fs.descend(r.Uint64(), cur, levels)]++
		}
		return
	}
	nd := &fs.walk[cur]
	n0 := r.Binomial(n, float64(nd.T)*0x1p-64)
	k := [2]int{n0, n - n0}
	for bit, kid := range nd.Kid {
		if kid == dd.SnapZero && k[bit] > 0 {
			fs.renorms.Add(uint64(k[bit]))
			k[bit^1], k[bit] = n, 0
		}
	}
	for bit, kid := range nd.Kid {
		if k[bit] > 0 {
			walkSplit(fs, r, kid, levels-1, prefix<<1|uint64(bit), k[bit], counts)
		}
	}
}

// TestSplitGroupsZeroEdge: on the slack running example, whose walks fall
// back at zero edges about half the time, a split whose fallback groups
// walk through slack nodes counts, into a run tally and into a dense one,
// what walking each group's shots one by one does, with the same renorms
// and the generator left in the same state.
func TestSplitGroupsZeroEdge(t *testing.T) {
	for _, rule := range blockRules {
		for _, dense := range []bool{false, true} {
			for _, shots := range []int{splitMax + 1, 24, 40, 100, 1000} {
				fs := slackSampler(t, rule.norm)
				ref, r := rng.New(uint64(shots)), rng.New(uint64(shots))
				want := map[uint64]int{}
				walkSplit(fs, ref, fs.root, fs.n, 0, shots, want)
				walked := fs.Renorms()
				got := drawForced(fs, r, shots, dense)
				split := fs.Renorms() - walked
				if !maps.Equal(got.Map(), want) {
					t.Fatalf("%s, dense %v, %d shots: split %v, shot by shot %v", rule.name, dense, shots, got.Map(), want)
				}
				if split != walked || walked == 0 {
					t.Fatalf("%s, dense %v, %d shots: renorms %d, shot by shot %d, want equal and nonzero", rule.name, dense, shots, split, walked)
				}
				if a, b := ref.Uint64(), r.Uint64(); a != b {
					t.Fatalf("%s, dense %v, %d shots: generators diverge: %#x vs %#x", rule.name, dense, shots, a, b)
				}
			}
		}
	}
}
