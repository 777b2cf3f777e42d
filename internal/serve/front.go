package serve

// Request front end: one fixed-schema scanner for /v1/sample and /v1/jobs
// bodies, shared by the replica and the cluster router.
//
// A body is read once into a pooled buffer and scanned in place. The
// scanner returns the integer and string members the schema knows and,
// for the circuit, the raw JSON string token of the "qasm" or "circuit"
// member, quotes and escapes included, still pointing into the buffer.
// That token is the spelling memo's key (cache.go), so a warm request is a
// scan and one map probe: nothing is unescaped or copied. Only a memo miss
// unescapes the token, with encoding/json on the token alone, so escapes
// and invalid UTF-8 decode exactly as they always have.
//
// The scanner accepts what encoding/json's Decoder with
// DisallowUnknownFields accepts for the request structs, and yields the
// same fields (FuzzScanMatchesJSON holds it to that):
//
//   - member names match case-insensitively, with encoding/json's folding
//     ("ſhots" is shots, and the Kelvin sign folds to k);
//   - a repeated member's last value wins;
//   - null leaves a member as it was, except that it unsets seed;
//   - numbers are integers, and seed is non-negative;
//   - unknown members are refused, and so is any value of the wrong type.
//
// It is narrower in one way: only whitespace may follow the body's value,
// where the Decoder stopped after the first value and ignored the rest.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"weaksim/internal/circuit"
	"weaksim/internal/dd"
	"weaksim/internal/obs"
)

// member is one body member the scanner knows, a bit of a schema.
type member uint8

const (
	memberQASM member = 1 << iota
	memberCircuit
	memberShots
	memberSeed
	memberWorkers
	memberTimeout
	memberPriority
	memberTenant
)

// sampleMembers and jobMembers are the /v1/sample and /v1/jobs schemas.
const (
	sampleMembers = memberQASM | memberCircuit | memberShots | memberSeed | memberWorkers | memberTimeout
	jobMembers    = memberQASM | memberCircuit | memberShots | memberSeed | memberPriority | memberTenant
)

// memberNames spells each member as encoding/json matches it.
var memberNames = [...]struct {
	name string
	m    member
}{
	{"qasm", memberQASM}, {"circuit", memberCircuit}, {"shots", memberShots},
	{"seed", memberSeed}, {"workers", memberWorkers}, {"timeout_ms", memberTimeout},
	{"priority", memberPriority}, {"tenant", memberTenant},
}

// requestBody is a scanned body. Its circuit spelling points into the
// scanned bytes; priority and tenant, which only a job submit reads, are
// unescaped.
type requestBody struct {
	spelling
	priority, tenant string
	shots, workers   int
	timeoutMS        int64
	seed             uint64
	// seeded reports a seed member; a null seed unsets it.
	seeded bool
}

// spelling is how a request names its circuit: the raw JSON string token
// of its "qasm" member (OpenQASM 2.0 source) or of its "circuit" member
// (an internal/algo benchmark name). Exactly one is set on a valid request.
type spelling struct {
	qasm, circuit []byte
}

// memoKey returns the token the memo files sp under and which of its maps
// holds it (memoQASM or memoName); ok is false unless sp sets exactly one
// member, so a spelling that cannot resolve is never probed.
func (sp spelling) memoKey() (tok []byte, kind int, ok bool) {
	q, c := isSet(sp.qasm), isSet(sp.circuit)
	switch {
	case q && !c:
		return sp.qasm, memoQASM, true
	case c && !q:
		return sp.circuit, memoName, true
	}
	return nil, 0, false
}

// resolve unescapes sp's tokens and builds and validates the circuit they
// name (resolveCircuit).
func (sp spelling) resolve() (*circuit.Circuit, error) {
	src, name, err := sp.decode()
	if err != nil {
		return nil, err
	}
	return resolveCircuit(src, name)
}

// decode unescapes sp's QASM source and benchmark name; an absent member
// decodes to "".
func (sp spelling) decode() (src, name string, err error) {
	if src, err = unquote(sp.qasm); err == nil {
		name, err = unquote(sp.circuit)
	}
	return src, name, err
}

// isSet reports whether tok is a non-empty string token: "" names nothing,
// as an absent member does.
func isSet(tok []byte) bool { return len(tok) > 2 }

// unquote decodes a string token the scanner accepted; nil decodes to "".
func unquote(tok []byte) (string, error) {
	if tok == nil {
		return "", nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return "", fmt.Errorf("invalid JSON body: %w", err)
	}
	return s, nil
}

// quote returns s as a string token, the one escaping a job chunk files its
// spelling under; "" quotes to nil, an absent member.
func quote(s string) []byte {
	if s == "" {
		return nil
	}
	tok, _ := json.Marshal(s) // a string always marshals
	return tok
}

// errBody prefixes every scan error, as the Decoder's errors were.
func errBody(format string, args ...any) error {
	return fmt.Errorf("invalid JSON body: "+format, args...)
}

// scanBody scans b as a request body of the schema allowed.
func scanBody(b []byte, allowed member) (requestBody, error) {
	var req requestBody
	i := skipSpace(b, 0)
	switch {
	case bytes.HasPrefix(b[i:], []byte("null")):
		// A null body decodes to the zero request, as it did into a struct.
		i += 4
	case i < len(b) && b[i] == '{':
		var err error
		if i, err = req.object(b, i+1, allowed); err != nil {
			return requestBody{}, err
		}
	case i == len(b):
		return requestBody{}, errBody("empty body")
	default:
		return requestBody{}, errBody("body is not a JSON object (byte %d)", i)
	}
	if i = skipSpace(b, i); i != len(b) {
		return requestBody{}, errBody("unexpected bytes after the body's object (byte %d)", i)
	}
	return req, nil
}

// object scans an object's members from just past its '{' and returns the
// offset just past its '}'.
func (req *requestBody) object(b []byte, i int, allowed member) (int, error) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == '}' {
		return i + 1, nil
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return 0, errBody("expected a member name at byte %d", i)
		}
		end, err := scanString(b, i)
		if err != nil {
			return 0, err
		}
		m := lookupMember(b[i:end])
		if m&allowed == 0 {
			name, _ := unquote(b[i:end])
			return 0, errBody("unknown field %q", name)
		}
		if i = skipSpace(b, end); i >= len(b) || b[i] != ':' {
			return 0, errBody("expected ':' at byte %d", i)
		}
		if i, err = req.value(b, skipSpace(b, i+1), m); err != nil {
			return 0, err
		}
		if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == '}' {
			return i + 1, nil
		}
		return 0, errBody("expected ',' or '}' at byte %d", i)
	}
}

// value scans member m's value at b[i:] into req and returns the offset
// past it.
func (req *requestBody) value(b []byte, i int, m member) (int, error) {
	if bytes.HasPrefix(b[i:], []byte("null")) {
		if m == memberSeed {
			req.seed, req.seeded = 0, false
		}
		return i + 4, nil
	}
	switch m {
	case memberQASM, memberCircuit, memberPriority, memberTenant:
		if i >= len(b) || b[i] != '"' {
			return 0, errBody("%q must be a string (byte %d)", m.name(), i)
		}
		end, err := scanString(b, i)
		if err != nil {
			return 0, err
		}
		tok := b[i:end:end]
		switch m {
		case memberQASM:
			req.qasm = tok
		case memberCircuit:
			req.circuit = tok
		case memberPriority:
			req.priority, err = unquote(tok)
		default:
			req.tenant, err = unquote(tok)
		}
		return end, err
	}
	neg, mag, end := scanInt(b, i)
	if end == i {
		return 0, errBody("%q must be an integer (byte %d)", m.name(), i)
	}
	var v int64
	switch {
	case m == memberSeed:
		if neg {
			return 0, errBody("seed must be a non-negative integer (byte %d)", i)
		}
		req.seed, req.seeded = mag, true
		return end, nil
	case neg && mag <= 1<<63:
		v = int64(-mag) // -(1<<63) wraps to itself
	case !neg && mag <= math.MaxInt64:
		v = int64(mag)
	default:
		return 0, errBody("%q overflows an integer (byte %d)", m.name(), i)
	}
	switch m {
	case memberShots:
		req.shots = int(v)
	case memberWorkers:
		req.workers = int(v)
	default:
		req.timeoutMS = v
	}
	return end, nil
}

// name is m's member name.
func (m member) name() string {
	for _, n := range memberNames {
		if n.m == m {
			return n.name
		}
	}
	return ""
}

// lookupMember returns the member a name token names, or 0: encoding/json
// matches a name by bytes.EqualFold on its unescaped text.
func lookupMember(tok []byte) member {
	name := tok[1 : len(tok)-1]
	if bytes.IndexByte(name, '\\') >= 0 {
		s, err := unquote(tok)
		if err != nil {
			return 0
		}
		name = []byte(s)
	}
	for _, n := range memberNames {
		if bytes.EqualFold(name, []byte(n.name)) {
			return n.m
		}
	}
	return 0
}

// skipSpace returns the offset of the first byte at or after b[i] that is
// not JSON whitespace, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// scanString checks the string token starting at the quote b[i] and returns
// the offset just past its closing quote. Bytes of invalid UTF-8 pass, as
// encoding/json passes them (decoding replaces them).
func scanString(b []byte, i int) (int, error) {
	for j := i + 1; ; {
		j = plainRun(b, j)
		if j >= len(b) {
			return 0, errBody("unterminated string at byte %d", i)
		}
		switch c := b[j]; {
		case c == '"':
			return j + 1, nil
		case c < 0x20:
			return 0, errBody("control character in string at byte %d", j)
		}
		// An escape: \" \\ \/ \b \f \n \r \t or \u and four hex digits.
		if j+1 >= len(b) {
			return 0, errBody("unterminated string at byte %d", i)
		}
		switch b[j+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			j += 2
		case 'u':
			if j+6 > len(b) || !isHex(b[j+2]) || !isHex(b[j+3]) || !isHex(b[j+4]) || !isHex(b[j+5]) {
				return 0, errBody("invalid \\u escape at byte %d", j)
			}
			j += 6
		default:
			return 0, errBody("invalid escape at byte %d", j)
		}
	}
}

// plainRun returns the offset of the first byte at or after b[j] that
// stops a string's plain run, or len(b): a quote, a backslash, or a
// control character, which JSON refuses unescaped. It reads eight bytes a
// word, flagging each such byte; a borrow can flag a byte only above a
// flagged one, so the lowest flag is exact.
func plainRun(b []byte, j int) int {
	const (
		ones  = 0x0101010101010101
		highs = 0x8080808080808080
	)
	for ; j+8 <= len(b); j += 8 {
		w := binary.LittleEndian.Uint64(b[j:])
		q, bs := w^(ones*'"'), w^(ones*'\\')
		if f := ((q-ones)&^q | (bs-ones)&^bs | (w-ones*0x20)&^w) & highs; f != 0 {
			return j + bits.TrailingZeros64(f)>>3
		}
	}
	for j < len(b) && b[j] >= 0x20 && b[j] != '"' && b[j] != '\\' {
		j++
	}
	return j
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanInt reads a JSON integer at b[i:]: an optional minus, then 0 or a
// digit string without a leading zero. It returns the offset past it, or i
// when there is none; a magnitude past 2^64-1 also returns i. A fraction or
// exponent is left unread, so the delimiter check after the value refuses
// it, as encoding/json refuses a non-integer for an integer field.
func scanInt(b []byte, i int) (neg bool, mag uint64, end int) {
	j := i
	if j < len(b) && b[j] == '-' {
		neg = true
		j++
	}
	start := j
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		d := uint64(b[j] - '0')
		if mag > (math.MaxUint64-d)/10 {
			return false, 0, i
		}
		mag = mag*10 + d
	}
	if j == start || (b[start] == '0' && j-start > 1) {
		return false, 0, i
	}
	return neg, mag, j
}

// bodyPool recycles body buffers. A request scans its body in place and
// its spelling points into the buffer, so the handler returns the buffer
// (putBody) only when it is done with the request.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers bodyPool keeps: a rare large body is
// not held for the life of the process.
const maxPooledBody = 256 << 10

// errBodyTooLarge refuses a body past the server's MaxBodyBytes.
var errBodyTooLarge = errors.New("invalid JSON body: request body too large")

// readBody reads r to its end into a pooled buffer, refusing more than
// limit bytes. Its buffer goes back with putBody.
func readBody(r io.Reader, size, limit int64) (*[]byte, error) {
	if size > limit {
		return nil, errBodyTooLarge
	}
	p := bodyPool.Get().(*[]byte)
	b := (*p)[:0]
	if size > 0 && size >= int64(cap(b)) {
		b = make([]byte, 0, size+1) // +1: the read that sees EOF needs room
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*p = b
		if int64(len(b)) > limit {
			putBody(p)
			return nil, errBodyTooLarge
		}
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			putBody(p)
			return nil, fmt.Errorf("invalid JSON body: %w", err)
		}
	}
}

// putBody returns a readBody buffer to the pool; nil is a no-op.
func putBody(p *[]byte) {
	if p != nil && cap(*p) <= maxPooledBody {
		*p = (*p)[:0]
		bodyPool.Put(p)
	}
}

// KeyMemo maps /v1/sample bodies to the cache keys of their circuits for a
// router, which must place a request by the key a replica's cache will use
// before any replica sees it: the routing function is the cache-key
// function. It scans a body as a replica does, so it refuses what a replica
// refuses for the body's syntax or schema, and it remembers spellings under
// the replica memo's caps: maxSpellings a key, tokens of at most
// maxSpellingBytes, and a byte budget over keys and spellings that forgets
// the least recently used key first. A remembered spelling is a scan and
// one map probe; any other is resolved and hashed. Safe for concurrent use.
type KeyMemo struct {
	norm dd.Norm
	c    *snapCache
}

// keyMemoEntryBytes is what a key charges the memo beyond its spellings.
const keyMemoEntryBytes = 128

// NewKeyMemo returns a KeyMemo for replicas that normalize under norm,
// holding at most maxBytes of keys and spellings (<= 0: no bound).
func NewKeyMemo(norm dd.Norm, maxBytes int64) *KeyMemo {
	return &KeyMemo{norm: norm, c: newSnapCache(max(maxBytes, 0), obs.NewRegistry())}
}

// Key returns the cache key of the circuit body names. Every error is the
// body's fault.
func (m *KeyMemo) Key(body []byte) (string, error) {
	req, err := scanBody(body, sampleMembers)
	if err != nil {
		return "", err
	}
	if ent, ok := m.c.getBySpelling(req.spelling); ok {
		return ent.key, nil
	}
	circ, err := req.resolve()
	if err != nil {
		return "", err
	}
	key := CircuitKey(circ, m.norm, false)
	m.c.remember(req.spelling, m.c.keyed(key, keyMemoEntryBytes))
	return key, nil
}

// Stats returns how many keys the memo answered from a remembered spelling
// and how many it resolved.
func (m *KeyMemo) Stats() (hits, misses uint64) {
	st := m.c.stats()
	return st.SpellingHits, st.SpellingMisses
}
