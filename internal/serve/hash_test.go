package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/circuit/qasm"
	"weaksim/internal/dd"
	"weaksim/internal/gate"
)

func bell(name string) *circuit.Circuit {
	return circuit.New(2, name).H(0).CX(0, 1)
}

func TestCircuitKeyIgnoresPresentation(t *testing.T) {
	a := CircuitKey(bell("one"), dd.NormL2Phase, false)
	b := CircuitKey(bell("completely-different-name"), dd.NormL2Phase, false)
	if a != b {
		t.Fatalf("circuit name changed the key: %s vs %s", a, b)
	}
	withBarrier := circuit.New(2, "x").H(0)
	withBarrier.Barrier()
	withBarrier.CX(0, 1)
	if got := CircuitKey(withBarrier, dd.NormL2Phase, false); got != a {
		t.Fatalf("barrier changed the key: %s vs %s", got, a)
	}
}

func TestCircuitKeySensitivity(t *testing.T) {
	base := CircuitKey(bell("b"), dd.NormL2Phase, false)
	cases := map[string]string{
		"different gate":  CircuitKey(circuit.New(2, "b").H(0).CZ(0, 1), dd.NormL2Phase, false),
		"different width": CircuitKey(circuit.New(3, "b").H(0).CX(0, 1), dd.NormL2Phase, false),
		"different norm":  CircuitKey(bell("b"), dd.NormLeft, false),
		"generic flag":    CircuitKey(bell("b"), dd.NormL2Phase, true),
		"different target": CircuitKey(
			circuit.New(2, "b").H(1).CX(0, 1), dd.NormL2Phase, false),
	}
	for what, key := range cases {
		if key == base {
			t.Errorf("%s did not change the key", what)
		}
	}
}

func TestCircuitKeyParamBits(t *testing.T) {
	a := CircuitKey(circuit.New(1, "p").RZ(0.1, 0), dd.NormL2Phase, false)
	b := CircuitKey(circuit.New(1, "p").RZ(0.1+1e-18, 0), dd.NormL2Phase, false)
	c := CircuitKey(circuit.New(1, "p").RZ(0.2, 0), dd.NormL2Phase, false)
	if a != b {
		// 0.1+1e-18 rounds to the same float64, so the keys must agree.
		t.Fatalf("identical float bits hashed differently")
	}
	if a == c {
		t.Fatalf("different rotation angles hashed identically")
	}
}

func TestCircuitKeyPermutation(t *testing.T) {
	p1 := circuit.New(2, "p").Permutation([]uint64{1, 0}, 1, "swap01")
	p2 := circuit.New(2, "p").Permutation([]uint64{0, 1}, 1, "ident")
	a := CircuitKey(p1, dd.NormL2Phase, false)
	b := CircuitKey(p2, dd.NormL2Phase, false)
	if a == b {
		t.Fatalf("different permutation tables hashed identically")
	}
	// Label is presentation, not semantics.
	p3 := circuit.New(2, "p").Permutation([]uint64{1, 0}, 1, "other-label")
	if got := CircuitKey(p3, dd.NormL2Phase, false); got != a {
		t.Fatalf("permutation label changed the key")
	}
}

// TestCircuitKeyGolden pins the key bytes: persisted snapshot files are
// named by key and the cluster router places circuits on its ring by key,
// so a key that moves orphans every snapshot on disk and reshuffles the
// ring. The values were recorded before keys were hashed from a staged
// buffer; they cover a circuit parsed from QASM, wide multi-controlled
// gates, permutation ops and negative controls, under both norms.
func TestCircuitKeyGolden(t *testing.T) {
	qft, err := algo.Generate("qft_16")
	if err != nil {
		t.Fatal(err)
	}
	src, err := qasm.Write(qft)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := qasm.Parse(src, "request")
	if err != nil {
		t.Fatal(err)
	}
	grover, err := algo.Generate("grover_12")
	if err != nil {
		t.Fatal(err)
	}
	shor, err := algo.Generate("shor_33_2")
	if err != nil {
		t.Fatal(err)
	}
	neg := circuit.New(3, "neg").H(0).Apply(gate.XGate, 2, gate.Neg(0), gate.Pos(1)).RZ(0.25, 1)
	neg.Barrier()
	neg.Apply(gate.UGate(0.1, -0.2, 0.3), 0, gate.Neg(2))
	cases := []struct {
		name string
		c    *circuit.Circuit
		norm dd.Norm
		want string
	}{
		{"qft_16 from QASM", parsed, dd.NormL2Phase, "57544f1afeb5a3a5479650f8408256d7815a784a54efcf46261127a84fe7fa6b"},
		{"qft_16 from QASM", parsed, dd.NormLeft, "604e55b55d540fdc04674af891700565d1333ccfa4be019f32395bb9ec7e7b03"},
		{"grover_12", grover, dd.NormL2Phase, "0b7477b905a9ebb7c69463ecc3d7e40835150bc50f15b1590a8fc8e06a1f1a2f"},
		{"grover_12", grover, dd.NormLeft, "e7680768d383260237c60113a73594c36fb018f3b373878fd584553811c91463"},
		{"shor_33_2", shor, dd.NormL2Phase, "b488ea095b6054e272a064843a5aa6826135006f1d1332b8de4ac4af77e24620"},
		{"shor_33_2", shor, dd.NormLeft, "14b2cc597b39550fd4ac20b08f487fe624246f598868b8ba3e14b32ef90b7df0"},
		{"negative controls", neg, dd.NormL2Phase, "158130d938ba7c987def10e3c693f585145ce254b87f6c0c10e6a865df0a2fc4"},
		{"negative controls", neg, dd.NormLeft, "09e48012856805f24e8059388cb8f3fc2ca2c7ef247caf4ade4f4caeb4dca21a"},
	}
	for _, tc := range cases {
		if got := CircuitKey(tc.c, tc.norm, false); got != tc.want {
			t.Errorf("%s under norm %d: key %s, want %s", tc.name, tc.norm, got, tc.want)
		}
	}
}

// BenchmarkResolveRequest times what a /v1/sample request spends before
// it samples, for each circuit of weakbench's interactive mix, spelled as
// that mix sends it (the first six as QASM, the rest by name). A cold row
// is a spelling the memo does not hold: read and scan the body, probe the
// memo, resolve the circuit (unescape the token, parse the QASM or generate
// the benchmark, then validate), hash its key, then remember the spelling
// and forget it again, which is what each request costs when no spelling
// ever repeats and the entry's memo is full. A warm row reads and scans
// the body and finds the spelling in the memo. These steps are the parse and hash phases of the daemon's
// request trace. Spellings are remembered on a stand-in entry, so no
// circuit is simulated.
func BenchmarkResolveRequest(b *testing.B) {
	s := New(Config{DisableRequestTraces: true})
	defer s.Close()
	for _, name := range []string{"q:qft_16", "q:qft_32", "q:jellium_2x2", "q:supremacy_3x3_10", "q:ghz_24", "q:bv_20",
		"shor_33_2", "grover_12", "shor_21_2", "supremacy_4x4_10"} {
		member, spelled := "circuit", name
		if rest, ok := strings.CutPrefix(name, "q:"); ok {
			c, err := algo.Generate(rest)
			if err != nil {
				b.Fatal(err)
			}
			if spelled, err = qasm.Write(c); err != nil {
				b.Fatal(err)
			}
			member, name = "qasm", rest
		}
		js, err := json.Marshal(spelled)
		if err != nil {
			b.Fatal(err)
		}
		body := []byte(`{"` + member + `":` + string(js) + `,"shots":1024,"seed":7}`)
		rd := bytes.NewReader(body)
		r := httptest.NewRequest(http.MethodPost, "/v1/sample", nil)
		r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
		// resolve returns the request's key and spelling, and the body
		// buffer the spelling points into.
		resolve := func() (string, spelling, *[]byte) {
			rd.Reset(body)
			req, buf, err := s.parseRequest(r)
			if err != nil {
				b.Fatal(err)
			}
			key, _, _, err := s.keyFor(nil, nil, req.spelling, s.cache.getBySpelling)
			if err != nil {
				b.Fatal(err)
			}
			return key, req.spelling, buf
		}
		key, _, buf := resolve()
		putBody(buf)
		ent := testEntry(b, key, 0)
		s.cache.insert(ent)
		b.Run("cold/"+member+"/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				_, src, buf := resolve()
				s.cache.remember(src, ent)
				s.cache.mu.Lock()
				s.cache.forget(ent, 1)
				s.cache.mu.Unlock()
				putBody(buf)
			}
		})
		_, src, buf := resolve()
		s.cache.remember(src, ent)
		putBody(buf)
		b.Run("warm/"+member+"/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				_, _, buf := resolve()
				putBody(buf)
			}
		})
	}
}
