package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"weaksim/internal/core"
)

// answer is a counts-bearing response reduced to what verification compares.
// Keeping a digest instead of the body keeps the benchmark's own memory out
// of the window's peak RSS.
type answer struct {
	digest uint64 // order-independent hash of the (bitstring, count) pairs
	total  int    // sum of the counts
	width  int    // bitstring width (-1 when keys disagree)
	qubits int    // the response's "qubits" field
}

// entryHash hashes one (bitstring, count) pair; digests sum these, so the
// order of keys in a response does not matter.
func entryHash(key []byte, n int) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	z := h + uint64(n)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scanAnswer reads the "counts" object and "qubits" field of a /v1/sample
// or job-result body without decoding it into maps. Anything other than
// the encoding the daemon writes (bitstring keys, positive integer counts)
// is an error.
func scanAnswer(body []byte) (answer, error) {
	const open = `"counts":{`
	p := bytes.Index(body, []byte(open))
	if p < 0 {
		return answer{}, errors.New("response has no counts")
	}
	p += len(open)
	a := answer{width: -2}
	for p < len(body) && body[p] != '}' {
		if body[p] != '"' {
			return answer{}, fmt.Errorf("counts: unexpected byte %q at %d", body[p], p)
		}
		q := p + 1
		for q < len(body) && (body[q] == '0' || body[q] == '1') {
			q++
		}
		if q+1 >= len(body) || body[q] != '"' || body[q+1] != ':' {
			return answer{}, fmt.Errorf("counts: malformed key at %d", p)
		}
		key := body[p+1 : q]
		n, next, err := scanInt(body, q+2)
		if err != nil || n < 1 {
			return answer{}, fmt.Errorf("counts: bad count for %q", key)
		}
		switch {
		case a.width == -2:
			a.width = len(key)
		case a.width != len(key):
			a.width = -1
		}
		a.digest += entryHash(key, n)
		a.total += n
		p = next
		if p < len(body) && body[p] == ',' {
			p++
		}
	}
	if p >= len(body) {
		return answer{}, errors.New("counts: unterminated object")
	}
	const qf = `"qubits":`
	k := bytes.Index(body[p:], []byte(qf))
	if k < 0 {
		return answer{}, errors.New("response has no qubits field")
	}
	n, _, err := scanInt(body, p+k+len(qf))
	if err != nil {
		return answer{}, fmt.Errorf("qubits: %w", err)
	}
	a.qubits = n
	return a, nil
}

func scanInt(b []byte, p int) (int, int, error) {
	q := p
	for q < len(b) && b[q] >= '0' && b[q] <= '9' {
		q++
	}
	n, err := strconv.Atoi(string(b[p:q]))
	return n, q, err
}

// answerOf reduces counts drawn in-process to the answer the daemon should
// have sent for them.
func answerOf(counts map[uint64]int, qubits int) answer {
	a := answer{width: qubits, qubits: qubits}
	buf := make([]byte, 0, 64)
	for idx, n := range counts {
		buf = appendBits(buf[:0], idx, qubits)
		a.digest += entryHash(buf, n)
		a.total += n
	}
	return a
}

// appendBits is core.FormatBits without the allocation.
func appendBits(buf []byte, idx uint64, n int) []byte {
	for i := n - 1; i >= 0; i-- {
		buf = append(buf, '0'+byte(idx>>uint(i)&1))
	}
	return buf
}

// compare reports how got differs from want, or nil when they match.
func compare(got, want answer) error {
	switch {
	case got.total != want.total:
		return fmt.Errorf("counts sum to %d, want %d", got.total, want.total)
	case got.width != want.width:
		return fmt.Errorf("bitstrings are %d wide, want %d", got.width, want.width)
	case got.qubits != want.qubits:
		return fmt.Errorf("qubits field is %d, want %d", got.qubits, want.qubits)
	case got.digest != want.digest:
		return errors.New("counts differ from the in-process reference")
	}
	return nil
}

// refs holds the reference answer of every operation, by plan index.
type refs struct {
	want map[int]answer
	err  map[int]error
}

// references simulates each distinct circuit the operations used once,
// on GOMAXPROCS goroutines, and derives every (circuit, seed) reference
// from it with draw. Only one snapshot per goroutine is alive at a time.
func references(ops []opRec, pick func(i int) (*benchCircuit, uint64), draw func(s core.Sampler, seed uint64, qubits int) answer) refs {
	type use struct {
		c     *benchCircuit
		seeds map[uint64][]int // seed -> plan indices
	}
	byName := map[string]*use{}
	var uses []*use
	for _, op := range ops {
		c, seed := pick(op.i)
		u := byName[c.name]
		if u == nil {
			u = &use{c: c, seeds: map[uint64][]int{}}
			byName[c.name] = u
			uses = append(uses, u)
		}
		u.seeds[seed] = append(u.seeds[seed], op.i)
	}
	r := refs{want: map[int]answer{}, err: map[int]error{}}
	var mu sync.Mutex
	parallel(len(uses), func(k int) {
		u := uses[k]
		s, err := u.c.sampler()
		for seed, is := range u.seeds {
			var a answer
			if err == nil {
				a = draw(s, seed, u.c.circ.NQubits)
			}
			mu.Lock()
			for _, i := range is {
				r.want[i], r.err[i] = a, err
			}
			mu.Unlock()
		}
	})
	return r
}

// check marks every operation whose answer differs from its reference.
func (r refs) check(ops []opRec) {
	for k := range ops {
		if ops[k].err != nil {
			continue
		}
		if err := r.err[ops[k].i]; err != nil {
			ops[k].err = fmt.Errorf("reference: %w", err)
			continue
		}
		ops[k].err = compare(ops[k].ans, r.want[ops[k].i])
	}
}
