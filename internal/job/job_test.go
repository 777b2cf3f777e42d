package job

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"weaksim/internal/core"
)

func TestParsePriorityRoundTrip(t *testing.T) {
	cases := map[string]int{
		"":       PriorityNormal,
		"normal": PriorityNormal,
		"high":   PriorityHigh,
		"low":    PriorityLow,
	}
	for s, want := range cases {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Error("ParsePriority accepted an unknown class")
	}
	for _, p := range []int{PriorityHigh, PriorityNormal, PriorityLow} {
		back, err := ParsePriority(PriorityName(p))
		if err != nil || back != p {
			t.Errorf("PriorityName(%d) = %q does not round-trip: %d, %v", p, PriorityName(p), back, err)
		}
	}
	if PriorityName(99) != "normal" {
		t.Error("PriorityName of an out-of-range class should default to normal")
	}
}

func TestStateTerminal(t *testing.T) {
	for st, want := range map[State]bool{
		StateQueued: false, StateRunning: false,
		StateCompleted: true, StateFailed: true, StateCancelled: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", st, !want, want)
		}
	}
}

func TestVerdictError(t *testing.T) {
	inner := errors.New("the cause")
	ve := &VerdictError{Code: "bad_circuit", Err: inner}
	if ve.Error() != "the cause" {
		t.Errorf("Error() = %q", ve.Error())
	}
	if !errors.Is(ve, inner) {
		t.Error("errors.Is does not see through VerdictError")
	}
	var got *VerdictError
	if !errors.As(fmt.Errorf("wrapped: %w", ve), &got) || got.Code != "bad_circuit" {
		t.Error("errors.As does not recover the VerdictError")
	}
}

func TestSpecChunkArithmetic(t *testing.T) {
	s := Spec{Shots: 250, ChunkShots: 100}
	if got := s.ChunksTotal(); got != 3 {
		t.Fatalf("ChunksTotal = %d, want 3", got)
	}
	for i, want := range []int{100, 100, 50} {
		if got := s.ChunkShotCount(i); got != want {
			t.Errorf("ChunkShotCount(%d) = %d, want %d", i, got, want)
		}
	}
	if s.ChunkShotCount(-1) != 0 || s.ChunkShotCount(3) != 0 {
		t.Error("out-of-range chunks must have zero shots")
	}
	// An exact multiple: the last chunk is full-size, not zero.
	even := Spec{Shots: 200, ChunkShots: 100}
	if got := even.ChunkShotCount(1); got != 100 {
		t.Errorf("even split last chunk = %d, want 100", got)
	}
	degenerate := Spec{Shots: 0, ChunkShots: 100}
	if degenerate.ChunksTotal() != 0 {
		t.Error("zero shots must mean zero chunks")
	}
}

func TestSpecValidate(t *testing.T) {
	valid := Spec{ID: "j1", Circuit: "ghz_3", Shots: 10, ChunkShots: 5, Tenant: "t"}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no ID", func(s *Spec) { s.ID = "" }},
		{"no circuit", func(s *Spec) { s.Circuit = "" }},
		{"both sources", func(s *Spec) { s.QASM = "OPENQASM 2.0;" }},
		{"negative qubits", func(s *Spec) { s.Qubits = -1 }},
		{"qubits past 64", func(s *Spec) { s.Qubits = 65 }},
		{"zero shots", func(s *Spec) { s.Shots = 0 }},
		{"zero chunk shots", func(s *Spec) { s.ChunkShots = 0 }},
		{"priority too low", func(s *Spec) { s.Priority = PriorityLow + 1 }},
		{"priority negative", func(s *Spec) { s.Priority = -1 }},
		{"no tenant", func(s *Spec) { s.Tenant = "" }},
	}
	for _, m := range mutations {
		s := valid
		m.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestNewIDShape(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewID()
		if !strings.HasPrefix(id, "j") || len(id) != 17 {
			t.Fatalf("malformed ID %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestSubscriberPushDropsOldest(t *testing.T) {
	s := &subscriber{ch: make(chan Event, 2)}
	for i := 0; i < 5; i++ {
		s.push(Event{ChunksDone: i})
	}
	// Capacity 2, newest always lands: the survivors are a prefix-dropped
	// window ending in the last push.
	first, second := <-s.ch, <-s.ch
	if second.ChunksDone != 4 {
		t.Fatalf("newest frame lost: tail is %d, want 4", second.ChunksDone)
	}
	if first.ChunksDone >= second.ChunksDone {
		t.Fatalf("frames out of order: %d then %d", first.ChunksDone, second.ChunksDone)
	}
}

func TestTopCountsDeterministicTieBreak(t *testing.T) {
	counts := core.TallyRun([]uint64{0, 1, 2, 3, 4, 5}, []uint32{5, 9, 5, 1, 9, 2})
	got := topCounts(counts, 3, 4)
	want := []TopCount{
		{Bits: "001", Count: 9}, {Bits: "100", Count: 9},
		{Bits: "000", Count: 5}, {Bits: "010", Count: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("topCounts = %v, want %v", got, want)
	}
	if topCounts(core.TallyRun(nil, nil), 3, 4) != nil || topCounts(counts, 3, 0) != nil {
		t.Error("empty tally or k<=0 must yield nil")
	}
	if got := topCounts(counts, 3, 100); len(got) != len(counts.Map()) {
		t.Errorf("k beyond the tally returns %d entries, want %d", len(got), len(counts.Map()))
	}
}
