package dd

import (
	"math"
	"strings"
	"testing"

	"weaksim/internal/cnum"
)

func TestWriteDOTRunningExample(t *testing.T) {
	m := New(3, WithNormalization(NormL2Phase))
	a := cnum.New(0, -math.Sqrt(3.0/8.0))
	b := cnum.New(math.Sqrt(1.0/8.0), 0)
	e, _ := m.FromVector([]cnum.Complex{cnum.Zero, a, cnum.Zero, a, b, cnum.Zero, cnum.Zero, b})

	var sb strings.Builder
	if err := m.WriteDOT(&sb, e, "figure4"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph \"figure4\"",
		"terminal [shape=box",
		"label=\"q2\"",
		"label=\"q1\"",
		"label=\"q0\"",
		"rank=same",
		"style=dashed",
		"style=solid",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Five nodes of the running example → five node declarations.
	if got := strings.Count(out, "[label=\"q"); got != m.NodeCount(e) {
		t.Errorf("DOT declares %d nodes, DD has %d", got, m.NodeCount(e))
	}
}

func TestWriteDOTZeroVector(t *testing.T) {
	m := New(2)
	var sb strings.Builder
	if err := m.WriteDOT(&sb, VEdge{}, "zero"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "zero [shape=box") {
		t.Errorf("zero-vector DOT wrong:\n%s", sb.String())
	}
}

func TestWriteDOTPropagatesWriteErrors(t *testing.T) {
	m := New(2)
	e := m.ZeroState()
	w := &limitedWriter{limit: 10}
	if err := m.WriteDOT(w, e, "x"); err == nil {
		t.Error("expected write error to propagate")
	}
}

type limitedWriter struct{ limit int }

func (l *limitedWriter) Write(p []byte) (int, error) {
	if l.limit <= 0 {
		return 0, errLimit
	}
	l.limit -= len(p)
	return len(p), nil
}

var errLimit = &limitError{}

type limitError struct{}

func (*limitError) Error() string { return "write limit reached" }
