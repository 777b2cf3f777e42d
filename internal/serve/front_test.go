package serve

// Request front end tests: the scanner against the encoding/json decoder
// it replaced (kept here as the reference), its quirks one by one, the
// trailing-bytes rule and the body cap at the HTTP surface.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// circuitSource, sampleBodyRef and jobBodyRef are the request structs the
// daemon decoded bodies into with encoding/json before the scanner.
type circuitSource struct {
	QASM    string `json:"qasm,omitempty"`
	Circuit string `json:"circuit,omitempty"`
}

type sampleBodyRef struct {
	circuitSource
	Shots     int     `json:"shots,omitempty"`
	Seed      *uint64 `json:"seed,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

type jobBodyRef struct {
	circuitSource
	Shots    int     `json:"shots"`
	Seed     *uint64 `json:"seed,omitempty"`
	Priority string  `json:"priority,omitempty"`
	Tenant   string  `json:"tenant,omitempty"`
}

// decodeBody is the reference the scanner must match: the daemon's old
// body decoder (a Decoder refusing unknown fields), narrowed by the rule
// that only whitespace may follow the body's value.
func decodeBody(body []byte, req any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		return errBody("trailing bytes")
	}
	return nil
}

// scanned is what a body yields, decoded, for comparison with the reference.
type scanned struct {
	QASM, Circuit, Priority, Tenant string
	Shots, Workers                  int
	TimeoutMS                       int64
	Seed                            *uint64
}

func fromScan(t *testing.T, req requestBody) scanned {
	t.Helper()
	src, name, err := req.decode()
	if err != nil {
		t.Fatalf("a scanned spelling does not unescape: %q, %q: %v", req.qasm, req.circuit, err)
	}
	out := scanned{QASM: src, Circuit: name, Priority: req.priority, Tenant: req.tenant,
		Shots: req.shots, Workers: req.workers, TimeoutMS: req.timeoutMS}
	if req.seeded {
		seed := req.seed
		out.Seed = &seed
	}
	return out
}

func equalScans(a, b scanned) bool {
	if (a.Seed == nil) != (b.Seed == nil) || (a.Seed != nil && *a.Seed != *b.Seed) {
		return false
	}
	a.Seed, b.Seed = nil, nil
	return a == b
}

// checkScanMatchesJSON asserts that scanBody accepts body under both
// schemas exactly when the reference does, with equal fields.
func checkScanMatchesJSON(t *testing.T, body []byte) {
	t.Helper()
	var s sampleBodyRef
	var j jobBodyRef
	for _, tc := range []struct {
		name    string
		allowed member
		ref     any
		want    func() scanned
	}{
		{"sample", sampleMembers, &s, func() scanned {
			return scanned{QASM: s.QASM, Circuit: s.Circuit, Shots: s.Shots, Workers: s.Workers, TimeoutMS: s.TimeoutMS, Seed: s.Seed}
		}},
		{"job", jobMembers, &j, func() scanned {
			return scanned{QASM: j.QASM, Circuit: j.Circuit, Shots: j.Shots, Priority: j.Priority, Tenant: j.Tenant, Seed: j.Seed}
		}},
	} {
		refErr := decodeBody(body, tc.ref)
		req, err := scanBody(body, tc.allowed)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s body %q: scanner error %v, reference error %v", tc.name, body, err, refErr)
		}
		if err != nil {
			continue
		}
		if got, want := fromScan(t, req), tc.want(); !equalScans(got, want) {
			t.Fatalf("%s body %q: scanned %+v, reference %+v", tc.name, body, got, want)
		}
	}
}

// scanQuirks are bodies whose handling encoding/json fixes and the scanner
// keeps, and the trailing bytes it refuses; they seed the fuzzer too.
var scanQuirks = []string{
	`{"circuit":"ghz_4","shots":64,"seed":3}`,
	"{\"\u017fhots\":7,\"circuit\":\"ghz_4\"}",        // U+017F folds to s
	"{\"wor\u212aers\":2}",                            // the Kelvin sign folds to k
	`{"SHOTS":5,"Seed":2,"qAsM":"x"}`,                 // ASCII case folds
	`{"\u0073hots":9}`,                                // an escaped name
	`{"shots":1,"shots":2,"seed":4,"seed":5}`,         // the last member wins
	`{"seed":4,"seed":null}`,                          // null unsets seed
	`{"shots":4,"shots":null,"qasm":"a","qasm":null}`, // null leaves the rest
	`null`, ` {} `, `{"shots":-0}`, `{"seed":18446744073709551615}`,
	`{"shots":1e2}`, `{"shots":1.0}`, `{"shots":01}`, `{"seed":-1}`, `{"seed":-0}`,
	`{"seed":18446744073709551616}`, `{"shots":9223372036854775808}`, `{"shots":-9223372036854775808}`,
	`{"frob":1}`, `{"chunk_shots":100}`, `{"priority":"high"}`, `{"workers":2}`, `{"timeout_ms":5}`,
	`{"shots":"5"}`, `{"qasm":5}`, `{"seed":true}`, `{"tenant":{}}`, `{"qasm":[]}`,
	`{"qasm":"a\nb"}`, `{"qasm":"a\u000ab\n\"\\\/\b\f\r\t"}`, `{"qasm":"\u12"}`, `{"qasm":"\x"}`,
	"{\"qasm\":\"\xff\xfe\"}", "{\"qasm\":\"a\tb\"}", `{"qasm":"\ud800"}`, `{"circuit":""}`,
	`{"circuit":"ghz_4"} garbage`, `{"circuit":"ghz_4"}{"circuit":"qft_16"}`, "{\"circuit\":\"ghz_4\"}\n\t ",
	``, ` `, `[]`, `"x"`, `5`, `nul`, `nullx`, `{`, `{"shots":1,}`, `{,}`, `{"shots" 1}`, `{"shots":1 "seed":2}`,
}

// TestScanQuirks holds the scanner to the reference on every quirk, and
// pins what each of the listed behaviours yields.
func TestScanQuirks(t *testing.T) {
	for _, body := range scanQuirks {
		checkScanMatchesJSON(t, []byte(body))
	}
	for _, tc := range []struct {
		body string
		ok   bool
		want scanned
	}{
		{"{\"\u017fhots\":7}", true, scanned{Shots: 7}},
		{"{\"wor\u212aers\":2}", true, scanned{Workers: 2}},
		{`{"shots":1,"shots":2}`, true, scanned{Shots: 2}},
		{`{"shots":4,"shots":null}`, true, scanned{Shots: 4}},
		{`{"seed":4,"seed":null}`, true, scanned{}},
		{`{"shots":1e2}`, false, scanned{}},
		{`{"seed":-1}`, false, scanned{}},
		{`{"frob":1}`, false, scanned{}},
		{`{"circuit":"ghz_4"} garbage`, false, scanned{}},
		{`{"circuit":"ghz_4"}{"circuit":"qft_16"}`, false, scanned{}},
	} {
		req, err := scanBody([]byte(tc.body), sampleMembers)
		if (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want accepted %v", tc.body, err, tc.ok)
			continue
		}
		if got := fromScan(t, req); tc.ok && !equalScans(got, tc.want) {
			t.Errorf("%s: scanned %+v, want %+v", tc.body, got, tc.want)
		}
	}
}

// FuzzScanMatchesJSON: the scanner accepts exactly the bodies the
// reference accepts, under both schemas, and yields equal fields.
func FuzzScanMatchesJSON(f *testing.F) {
	for _, body := range scanQuirks {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n","shots":1024,"seed":7,"workers":1,"timeout_ms":0}`))
	f.Add([]byte(`{"circuit":"qft_8","shots":65536,"seed":2,"priority":"low","tenant":"té"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScanMatchesJSON(t, body)
	})
}

// TestSampleTrailingBytesRefused: a body followed by anything but
// whitespace is a 400 at the replica, on /v1/sample and /v1/jobs alike,
// where the old decoder answered for the first object.
func TestSampleTrailingBytesRefused(t *testing.T) {
	_, base := startServer(t, Config{})
	for _, path := range []string{"/v1/sample", "/v1/jobs"} {
		for _, body := range []string{
			`{"circuit":"ghz_4","shots":8} garbage`,
			`{"circuit":"ghz_4","shots":8}{"circuit":"qft_16","shots":8}`,
		} {
			resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s %s: status %d, want 400", path, body, resp.StatusCode)
			}
		}
	}
	resp, err := http.Post(base+"/v1/sample", "application/json", strings.NewReader("{\"circuit\":\"ghz_4\",\"shots\":8}\r\n\t "))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d, want 200", resp.StatusCode)
	}
}

// TestBodyCap: a body of MaxBodyBytes is read, one byte more is a 400,
// whether or not the request declares its length.
func TestBodyCap(t *testing.T) {
	body := `{"circuit":"ghz_4","shots":8}`
	_, base := startServer(t, Config{MaxBodyBytes: int64(len(body) + 4)})
	for _, tc := range []struct {
		body string
		want int
	}{
		{body + "    ", http.StatusOK},
		{body + "     ", http.StatusBadRequest},
	} {
		for _, sized := range []bool{true, false} {
			var rd interface{ Read([]byte) (int, error) } = strings.NewReader(tc.body)
			if !sized {
				rd = struct{ *strings.Reader }{strings.NewReader(tc.body)} // hides the length
			}
			req, err := http.NewRequest(http.MethodPost, base+"/v1/sample", rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%d-byte body (length declared %v): status %d, want %d", len(tc.body), sized, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestKeyMemoParallel: goroutines keying several spellings at once, under
// a budget that keeps evicting keys, always get each body's own key, and
// the memo's invariants hold afterwards. Run under -race.
func TestKeyMemoParallel(t *testing.T) {
	var bodies [][]byte
	var want []string
	for _, name := range []string{"ghz_3", "ghz_4", "qft_4", "bv_5"} {
		for _, body := range []string{`{"circuit":"` + name + `"}`, `{"circuit":"` + name + `","shots":2}`} {
			key, err := NewKeyMemo(0, 0).Key([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			bodies, want = append(bodies, []byte(body)), append(want, key)
		}
	}
	memo := NewKeyMemo(0, 3*(keyMemoEntryBytes+spellingBytes(len(`"ghz_3"`))))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				i := (n*5 + g) % len(bodies)
				if key, err := memo.Key(bodies[i]); err != nil || key != want[i] {
					t.Errorf("body %s: key %s, %v; want %s", bodies[i], key, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkMemo(t, memo.c)
	if hits, _ := memo.Stats(); hits == 0 || memo.c.stats().Evictions == 0 {
		t.Fatalf("the run never hit or never evicted: %+v", memo.c.stats())
	}
}
