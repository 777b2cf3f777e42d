package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"weaksim/internal/algo"
	"weaksim/internal/circuit"
	"weaksim/internal/circuit/qasm"
	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/sim"
)

// norm is the normalization weaksimd ships with. serve.Config's zero value
// is NormLeft, under which grover_12 fails the freeze mass invariant, so
// every server here sets it explicitly (see README.md).
const norm = dd.NormL2Phase

// benchCircuit is one circuit as the benchmark sends it.
type benchCircuit struct {
	name string
	// source is the JSON member that names the circuit in a request body:
	// "qasm":"..." or "circuit":"qft_16".
	source string
	// qasm is the OpenQASM text of a circuit sent as QASM, "" otherwise.
	qasm string
	// circ is the circuit as the server builds it from source.
	circ *circuit.Circuit
}

// namedCircuit is sent by benchmark name.
func namedCircuit(name string) (*benchCircuit, error) {
	c, err := algo.Generate(name)
	if err != nil {
		return nil, err
	}
	return &benchCircuit{name: name, source: `"circuit":"` + name + `"`, circ: c}, nil
}

// qasmCircuit is sent as OpenQASM 2.0 source; circ is what parsing it back
// yields, exactly as the server sees it.
func qasmCircuit(name string, c *circuit.Circuit) (*benchCircuit, error) {
	src, err := qasm.Write(c)
	if err != nil {
		return nil, err
	}
	parsed, err := qasm.Parse(src, "request")
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(src)
	if err != nil {
		return nil, err
	}
	return &benchCircuit{name: name, source: `"qasm":` + string(js), qasm: src, circ: parsed}, nil
}

// qasmNamed writes a registry benchmark as QASM.
func qasmNamed(name string) (*benchCircuit, error) {
	c, err := algo.Generate(name)
	if err != nil {
		return nil, err
	}
	return qasmCircuit(name, c)
}

// circuitList builds a list from names; a "q:" prefix sends the circuit as
// QASM, anything else by name.
func circuitList(names ...string) []*benchCircuit {
	out := make([]*benchCircuit, len(names))
	for k, n := range names {
		var err error
		if rest, ok := strings.CutPrefix(n, "q:"); ok {
			out[k], err = qasmNamed(rest)
		} else {
			out[k], err = namedCircuit(n)
		}
		if err != nil {
			// The lists are constants of this program.
			panic(fmt.Sprintf("weakbench: circuit %s: %v", n, err))
		}
	}
	return out
}

// sampler strongly simulates the circuit under the daemon's normalization
// and freezes the result, with the same library calls the daemon makes. It
// is not cached: a snapshot keeps its simulation's node storage alive
// (README.md, findings), and the references of a run would add up.
func (b *benchCircuit) sampler() (*core.FrozenSampler, error) {
	ds, err := sim.NewDD(b.circ, sim.WithManagerOptions(dd.WithNormalization(norm)))
	if err != nil {
		return nil, err
	}
	e, err := ds.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	snap, err := ds.Manager().Freeze(e)
	if err != nil {
		return nil, err
	}
	return core.NewFrozenSampler(snap)
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, f func(k int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				f(k)
			}
		}()
	}
	wg.Wait()
}
