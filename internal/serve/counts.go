package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"weaksim/internal/core"
)

// countsJSON is a response's "counts" object: bitstrings (qubit n-1 first,
// qubits wide) to occurrence counts, written straight from the tally's
// ascending (index, count) pairs. Fixed-width MSB-first keys sort as their
// indices do, so ascending index order is the sorted key order
// encoding/json writes for a map[string]int: the bytes are the same,
// without a string per outcome, an intermediate map or a key sort.
type countsJSON struct {
	tally  *core.Tally
	qubits int
}

// MarshalJSON implements json.Marshaler.
func (c countsJSON) MarshalJSON() ([]byte, error) {
	buf, _ := c.stream(nil, nil)
	return buf, nil
}

// byteBits spells each byte's eight bits, most significant first.
var byteBits = func() (t [256][8]byte) {
	for b := range t {
		for i := range t[b] {
			t[b][i] = '0' + byte(b>>(7-i)&1)
		}
	}
	return t
}()

// countsFlushBytes is how much of a streamed counts object writeSample
// buffers before writing it out.
const countsFlushBytes = 32 << 10

// stream appends the counts object to buf and returns it. With w non-nil,
// buf is written out and reset whenever it passes countsFlushBytes, so what
// it returns is the unwritten tail, and the first write error.
func (c countsJSON) stream(buf []byte, w io.Writer) ([]byte, error) {
	var err error
	buf = append(buf, '{')
	sep := false
	top := c.qubits % 8 // the bits above the last whole byte
	c.tally.Ascending(func(idx uint64, n int) {
		if sep {
			buf = append(buf, ',')
		}
		sep = true
		buf = append(buf, '"')
		if top > 0 {
			buf = append(buf, byteBits[byte(idx>>(c.qubits-top))][8-top:]...)
		}
		for shift := c.qubits - top - 8; shift >= 0; shift -= 8 {
			buf = append(buf, byteBits[byte(idx>>shift)][:]...)
		}
		buf = append(buf, '"', ':')
		buf = strconv.AppendInt(buf, int64(n), 10)
		if w != nil && len(buf) >= countsFlushBytes {
			if err == nil {
				_, err = w.Write(buf)
			}
			buf = buf[:0]
		}
	})
	return append(buf, '}'), err
}

// writeSample writes a 200 /v1/sample body, byte for byte what writeJSON
// writes for resp, but streams the counts through one countsFlushBytes
// buffer: encoding/json marshals only sampleMeta, whose size does not grow
// with the outcomes, and never holds or re-scans the counts object, which
// has one member per outcome. finish, when not nil, runs once the counts
// are written and before sampleMeta is marshaled, so it can end the
// request's encode phase and fill in the trace echo that reports it.
func writeSample(w http.ResponseWriter, resp *sampleResponse, finish func(*sampleMeta)) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf := make([]byte, 0, countsFlushBytes+256)
	buf = append(buf, `{"counts":`...)
	// A failed write means the client is gone; like writeJSON, there is no
	// one left to tell, so the body just stops.
	buf, err := resp.Counts.stream(buf, w)
	if err != nil {
		return
	}
	if finish != nil {
		finish(&resp.sampleMeta)
	}
	meta, err := json.Marshal(&resp.sampleMeta)
	if err != nil {
		return
	}
	// meta is a JSON object: its members follow the counts in resp's order.
	buf = append(append(buf, ','), meta[1:]...)
	_, _ = w.Write(append(buf, '\n'))
}
