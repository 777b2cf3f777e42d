package weaksim_test

import (
	"fmt"
	"sort"

	"weaksim"
)

// The quickstart: build a Bell pair, draw shots, count outcomes.
func ExampleRun() {
	c := weaksim.NewCircuit(2, "bell")
	c.H(0).CX(0, 1)
	counts, err := weaksim.Run(c, 10000, weaksim.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(counts["01"], counts["10"]) // odd parity never occurs
	fmt.Println(counts["00"]+counts["11"] == 10000)
	// Output:
	// 0 0
	// true
}

// Inspect a simulated state: the 32-qubit QFT state has 2^32 amplitudes
// but only 32 decision-diagram nodes.
func ExampleSimulate() {
	c, err := weaksim.GenerateBenchmark("qft_32")
	if err != nil {
		panic(err)
	}
	state, err := weaksim.Simulate(c)
	if err != nil {
		panic(err)
	}
	fmt.Println(state.Qubits(), state.NodeCount())
	// Output:
	// 32 32
}

// Draw individual measurement shots, exactly like quantum hardware output.
func ExampleState_Sampler() {
	c, err := weaksim.GenerateBenchmark("running_example")
	if err != nil {
		panic(err)
	}
	state, err := weaksim.Simulate(c)
	if err != nil {
		panic(err)
	}
	sampler, err := state.Sampler(weaksim.WithSeed(3))
	if err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		fmt.Println(sampler.Shot())
	}
	// Output:
	// 111
	// 001
	// 001
}

// Probabilities of the paper's running example (Fig. 2).
func ExampleState_Probability() {
	c, _ := weaksim.GenerateBenchmark("running_example")
	state, _ := weaksim.Simulate(c)
	for _, bits := range []string{"001", "011", "100", "111"} {
		p, _ := state.Probability(bits)
		fmt.Printf("%s %.4f\n", bits, p)
	}
	// Output:
	// 001 0.3750
	// 011 0.3750
	// 100 0.1250
	// 111 0.1250
}

// Circuit optimization: redundant gates disappear without changing the
// state.
func ExampleOptimize() {
	c := weaksim.NewCircuit(2, "redundant")
	c.H(0).H(0).X(1).X(1).T(0)
	removed := weaksim.Optimize(c)
	fmt.Println(removed, c.NumOps())
	// Output:
	// 4 1
}

// Sort and print a histogram of GHZ outcomes.
func ExampleSampler_Counts() {
	c := weaksim.NewCircuit(3, "ghz")
	c.H(0).CX(0, 1).CX(1, 2)
	state, _ := weaksim.Simulate(c)
	sampler, _ := state.Sampler(weaksim.WithSeed(9))
	counts := sampler.Counts(1000)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println(keys)
	// Output:
	// [000 111]
}
