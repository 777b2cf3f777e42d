package snapstore

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/obs"
)

const testKey = "0123456789abcdef0123456789abcdef"

func testSnapshot(t *testing.T) *dd.Snapshot {
	t.Helper()
	m := dd.New(3, dd.WithNormalization(dd.NormL2Phase))
	a := cnum.New(0, -math.Sqrt(3.0/8.0))
	b := cnum.New(math.Sqrt(1.0/8.0), 0)
	state, err := m.FromVector([]cnum.Complex{cnum.Zero, a, cnum.Zero, a, b, cnum.Zero, cnum.Zero, b})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t)
	if err := st.Put(testKey, snap); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != snap.Len() || got.Root() != snap.Root() || got.RootWeight() != snap.RootWeight() {
		t.Fatal("loaded snapshot diverges from the stored one")
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 || keys[0] != testKey {
		t.Fatalf("Keys() = %v, %v", keys, err)
	}
	// No temp droppings left behind.
	entries, _ := os.ReadDir(st.Dir())
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestGetMissing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(testKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", `a\b`, "dot.dot", "ключ", strings.Repeat("x", 200)} {
		if err := st.Put(key, testSnapshot(t)); err == nil {
			t.Errorf("Put accepted key %q", key)
		}
		if _, err := st.Get(key); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Get accepted key %q", key)
		}
	}
}

// corruptStored flips one byte of the stored file at offset off (negative
// counts from the end).
func corruptStored(t *testing.T, st *Store, key string, off int) {
	t.Helper()
	path := filepath.Join(st.Dir(), key+ext)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionQuarantined(t *testing.T) {
	cases := map[string]func(t *testing.T, st *Store){
		"bit flip in payload": func(t *testing.T, st *Store) { corruptStored(t, st, testKey, 60) },
		"bit flip in trailer": func(t *testing.T, st *Store) { corruptStored(t, st, testKey, -3) },
		"truncated": func(t *testing.T, st *Store) {
			path := filepath.Join(st.Dir(), testKey+ext)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty file": func(t *testing.T, st *Store) {
			path := filepath.Join(st.Dir(), testKey+ext)
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			st.SetObserver(reg)
			if err := st.Put(testKey, testSnapshot(t)); err != nil {
				t.Fatal(err)
			}
			damage(t, st)
			if _, err := st.Get(testKey); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get after damage: %v, want ErrCorrupt", err)
			}
			// Quarantined: the .corrupt file exists, the key now misses, and
			// Keys() no longer lists it — the caller re-simulates and Puts.
			if _, err := os.Stat(filepath.Join(st.Dir(), testKey+ext+corruptExt)); err != nil {
				t.Fatalf("no quarantine file: %v", err)
			}
			if _, err := st.Get(testKey); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after quarantine: %v, want ErrNotFound", err)
			}
			if keys, _ := st.Keys(); len(keys) != 0 {
				t.Fatalf("Keys() after quarantine: %v", keys)
			}
			if got := reg.Counter("snapstore_quarantined_total").Value(); got != 1 {
				t.Fatalf("quarantine counter %d, want 1", got)
			}
			// And a fresh Put fully recovers the key.
			if err := st.Put(testKey, testSnapshot(t)); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get(testKey); err != nil {
				t.Fatalf("Get after re-Put: %v", err)
			}
		})
	}
}

func TestFaultInjectionAtStoreBoundary(t *testing.T) {
	t.Run("write err", func(t *testing.T) {
		defer fault.Disable()
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.Enable("snapstore.write:err@1", 1); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(testKey, testSnapshot(t)); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Put under write fault: %v", err)
		}
		// The failed Put must not have materialized a file.
		if _, err := st.Get(testKey); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get after failed Put: %v, want ErrNotFound", err)
		}
	})
	t.Run("write corrupt then read quarantines", func(t *testing.T) {
		defer fault.Disable()
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.Enable("snapstore.write:corrupt@1", 7); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(testKey, testSnapshot(t)); err != nil {
			t.Fatalf("Put with corrupt class: %v (corruption is silent at write time)", err)
		}
		fault.Disable()
		if _, err := st.Get(testKey); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Get of corrupted file: %v, want ErrCorrupt", err)
		}
	})
	t.Run("read err is a miss, not corruption", func(t *testing.T) {
		defer fault.Disable()
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(testKey, testSnapshot(t)); err != nil {
			t.Fatal(err)
		}
		if err := fault.Enable("snapstore.read:err@1", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(testKey); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Get under read fault: %v", err)
		}
		fault.Disable()
		// The file survived: the next read serves it.
		if _, err := st.Get(testKey); err != nil {
			t.Fatalf("Get after fault cleared: %v", err)
		}
	})
	t.Run("read truncate quarantines", func(t *testing.T) {
		defer fault.Disable()
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(testKey, testSnapshot(t)); err != nil {
			t.Fatal(err)
		}
		if err := fault.Enable("snapstore.read:truncate@1", 3); err != nil {
			t.Fatal(err)
		}
		_, gerr := st.Get(testKey)
		fault.Disable()
		if !errors.Is(gerr, fault.ErrInjected) && !errors.Is(gerr, ErrCorrupt) {
			t.Fatalf("Get under truncating read: %v", gerr)
		}
	})
	t.Run("overwrite is atomic", func(t *testing.T) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := st.Put(testKey, testSnapshot(t)); err != nil {
				t.Fatal(err)
			}
		}
		if keys, _ := st.Keys(); len(keys) != 1 {
			t.Fatalf("Keys() after overwrites: %v", keys)
		}
	})
}
