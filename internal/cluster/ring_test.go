package cluster

import (
	"fmt"
	"math"
	"testing"
)

func memberNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

func TestRingLookupDeterministicAndDistinct(t *testing.T) {
	r := buildRing(memberNames(5))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		a := r.lookup(key, 3)
		b := r.lookup(key, 3)
		if len(a) != 3 {
			t.Fatalf("lookup(%q, 3) returned %d members", key, len(a))
		}
		seen := map[string]bool{}
		for j, m := range a {
			if m != b[j] {
				t.Fatalf("lookup(%q) not deterministic: %v vs %v", key, a, b)
			}
			if seen[m] {
				t.Fatalf("lookup(%q) repeated member %s: %v", key, m, a)
			}
			seen[m] = true
		}
	}
	// Member order at build time must not matter.
	shuffled := []string{"http://10.0.0.3:8080", "http://10.0.0.1:8080",
		"http://10.0.0.5:8080", "http://10.0.0.2:8080", "http://10.0.0.4:8080"}
	r2 := buildRing(shuffled)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a, b := r.lookup(key, 2), r2.lookup(key, 2); a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("ring depends on member order: %v vs %v", a, b)
		}
	}
	if got := r.lookup("k", 10); len(got) != 5 {
		t.Fatalf("lookup beyond membership: %d members, want all 5", len(got))
	}
	if got := buildRing(nil).lookup("k", 1); got != nil {
		t.Fatalf("empty ring lookup: %v, want nil", got)
	}
}

// TestRingRebalanceProperty is the consistent-hashing contract: growing the
// fleet from N to N+1 backends moves only ~1/(N+1) of circuit keys, and
// removing a backend moves exactly the keys it owned (every other placement
// is untouched).
func TestRingRebalanceProperty(t *testing.T) {
	const nKeys = 20000
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("circuit-%064d", i)
	}

	for _, n := range []int{4, 10} {
		before := buildRing(memberNames(n))
		after := buildRing(memberNames(n + 1))
		moved := 0
		for _, k := range keys {
			if before.lookup(k, 1)[0] != after.lookup(k, 1)[0] {
				moved++
			}
		}
		ideal := float64(nKeys) / float64(n+1)
		if f := float64(moved); f > 2*ideal || f < ideal/3 {
			t.Errorf("grow %d->%d moved %d keys, want ~%.0f (1/N of %d)", n, n+1, moved, ideal, nKeys)
		}
		// Removal: dropping a member moves only the keys it owned, and every
		// moved key lands where the (n+1)-ring's next candidate already was.
		removed := after.members[n/2]
		shrunk := buildRing(append(append([]string{}, after.members[:n/2]...), after.members[n/2+1:]...))
		for _, k := range keys {
			was, now := after.lookup(k, 2), shrunk.lookup(k, 1)[0]
			if was[0] != removed && now != was[0] {
				t.Fatalf("key %s moved (%s -> %s) though its owner %s survived", k, was[0], now, removed)
			}
			if was[0] == removed && now != was[1] {
				t.Fatalf("orphaned key %s went to %s, want the old second candidate %s", k, now, was[1])
			}
		}
	}
}

// TestRingOwnership: shares sum to 1 and no backend's share strays far from
// 1/N at the default virtual-node count.
func TestRingOwnership(t *testing.T) {
	const n = 8
	own := buildRing(memberNames(n)).ownership()
	sum := 0.0
	for m, share := range own {
		sum += share
		if share < 0.3/n || share > 3.0/n {
			t.Errorf("member %s owns %.3f of the ring, want near %.3f", m, share, 1.0/n)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ownership sums to %v, want 1", sum)
	}
}
