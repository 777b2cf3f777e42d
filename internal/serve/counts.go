package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

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

// tallies holds the tallies answers were written from, once written, for
// the next answer to draw into (core.TallyParallelContext's spare): only
// Reusable ones, at most one chunk's run each, so a warm answer allocates
// no run.
var tallies sync.Pool

// countsBufs recycles writeCounts' buffers, countsFlushBytes and the one
// outcome that passes it. A buffer that grows past that (a long trace echo
// in the tail) is dropped and the pooled one kept.
var countsBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, countsFlushBytes+256)
	return &b
}}

// stream appends the counts object to buf and returns it. With w non-nil,
// buf is written out and reset whenever it passes countsFlushBytes, so what
// it returns is the unwritten tail, and the first write error.
func (c countsJSON) stream(buf []byte, w io.Writer) ([]byte, error) {
	var err error
	buf = append(buf, '{')
	sep := false
	top := c.qubits % 8 // the bits above the last whole byte
	c.tally.Ascending(func(idx uint64, n int) {
		// b is the closure's own: appending to the captured buf would store
		// its pointer through the closure's reference at every append, each
		// store a write barrier while the collector marks.
		b := buf
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = append(b, '"')
		if top > 0 {
			b = append(b, byteBits[byte(idx>>(c.qubits-top))][8-top:]...)
		}
		for shift := c.qubits - top - 8; shift >= 0; shift -= 8 {
			b = append(b, byteBits[byte(idx>>shift)][:]...)
		}
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, int64(n), 10)
		if w != nil && len(b) >= countsFlushBytes {
			if err == nil {
				_, err = w.Write(b)
			}
			b = b[:0]
		}
		buf = b
	})
	return append(buf, '}'), err
}

// writeSample writes a 200 /v1/sample body, byte for byte what writeJSON
// writes for resp, through writeCounts. finish, when not nil, runs once the
// counts are written and before sampleMeta is marshaled, so it can end the
// request's encode phase and fill in the trace echo that reports it.
func writeSample(w http.ResponseWriter, resp *sampleResponse, finish func(*sampleMeta)) {
	writeCounts(w, nil, resp.Counts, func() any {
		if finish != nil {
			finish(&resp.sampleMeta)
		}
		return &resp.sampleMeta
	})
}

// writeCounts writes a 200 body whose object holds head's members, then
// "counts", then the members of the value tail returns: byte for byte what
// writeJSON writes for a struct of those members in that order. It streams
// the counts through one pooled countsFlushBytes buffer, so encoding/json
// marshals only head and tail, whose sizes do not grow with the outcomes,
// and never holds or re-scans the counts object, which has one member per
// outcome.
// head is nil or marshals to a JSON object with members, as tail's value
// does; tail runs once the counts are written.
func writeCounts(w http.ResponseWriter, head any, counts countsJSON, tail func() any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	p := countsBufs.Get().(*[]byte)
	defer countsBufs.Put(p)
	buf := append((*p)[:0], '{')
	if head != nil {
		b, err := json.Marshal(head)
		if err != nil {
			return
		}
		// b is a JSON object: its members precede the counts.
		buf = append(append(buf, b[1:len(b)-1]...), ',')
	}
	buf = append(buf, `"counts":`...)
	// A failed write means the client is gone; like writeJSON, there is no
	// one left to tell, so the body just stops.
	buf, err := counts.stream(buf, w)
	if err != nil {
		return
	}
	b, err := json.Marshal(tail())
	if err != nil {
		return
	}
	// b is a JSON object: its members follow the counts.
	buf = append(append(buf, ','), b[1:]...)
	_, _ = w.Write(append(buf, '\n'))
}
