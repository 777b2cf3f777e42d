package dd

import (
	"fmt"
	"io"
	"sort"

	"weaksim/internal/cnum"
)

// WriteDOT renders a vector decision diagram in Graphviz DOT format, in the
// style of the paper's Fig. 4: one oval per node labeled with its qubit,
// solid edges for 1-successors and dashed for 0-successors, edge weights as
// labels (omitted when exactly 1), and a box terminal. Render with
// `dot -Tsvg`.
func (m *Manager) WriteDOT(w io.Writer, e VEdge, title string) error {
	bw := &errWriter{w: w}
	fmt.Fprintf(bw, "digraph %q {\n", title)
	fmt.Fprintf(bw, "  rankdir=TB;\n  node [shape=oval];\n")
	fmt.Fprintf(bw, "  root [shape=point];\n")

	if e.IsZero() {
		fmt.Fprintf(bw, "  zero [shape=box, label=\"0\"];\n  root -> zero;\n}\n")
		return bw.err
	}

	ids := map[*VNode]int{}
	var order []*VNode
	var collect func(n *VNode)
	collect = func(n *VNode) {
		if n == nil {
			return
		}
		if _, ok := ids[n]; ok {
			return
		}
		ids[n] = len(ids)
		order = append(order, n)
		collect(n.E[0].N)
		collect(n.E[1].N)
	}
	collect(e.N)

	fmt.Fprintf(bw, "  terminal [shape=box, label=\"1\"];\n")
	fmt.Fprintf(bw, "  root -> n%d [label=%q];\n", ids[e.N], weightLabel(e))

	// Group nodes of one level on one rank, root level on top.
	byLevel := map[int][]*VNode{}
	for _, n := range order {
		byLevel[n.V] = append(byLevel[n.V], n)
	}
	levels := make([]int, 0, len(byLevel))
	for v := range byLevel {
		levels = append(levels, v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	for _, v := range levels {
		fmt.Fprintf(bw, "  { rank=same;")
		for _, n := range byLevel[v] {
			fmt.Fprintf(bw, " n%d;", ids[n])
		}
		fmt.Fprintf(bw, " }\n")
	}

	for _, n := range order {
		fmt.Fprintf(bw, "  n%d [label=\"q%d\"];\n", ids[n], n.V)
		for i := 0; i < 2; i++ {
			edge := n.E[i]
			style := "dashed"
			if i == 1 {
				style = "solid"
			}
			if edge.IsZero() {
				continue
			}
			target := "terminal"
			if edge.N != nil {
				target = fmt.Sprintf("n%d", ids[edge.N])
			}
			fmt.Fprintf(bw, "  n%d -> %s [style=%s, label=%q];\n",
				ids[n], target, style, weightLabel(edge))
		}
	}
	fmt.Fprintf(bw, "}\n")
	return bw.err
}

func weightLabel(e VEdge) string {
	if e.W == cnum.One {
		return ""
	}
	return e.W.String()
}

// errWriter latches the first write error so the render loop stays simple.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}
