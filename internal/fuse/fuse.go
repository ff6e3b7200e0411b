// Package fuse implements the execution-DAG analysis of Section 6.2 and
// Figure 5: given a model's tensor-operation DAG annotated with tensor
// kinds (dense, sparse, virtual, vector, scalar), it finds the fusion
// groups the paper's rule produces — "traverse the DAG until an edge whose
// output is a virtual matrix; continue until an edge whose output is a
// sparse intermediate that samples the virtual results on the path; fuse
// all operations on this path into an SDDMM-like kernel".
//
// The DAG analysed is the one every layer builds for itself (Graph, in
// graph.go) and compiles into a Plan; the tests run Analyze on the VA, AGNN
// and GAT layers' own graphs and check the groups against Figure 5, making
// the fusion choices auditable rather than folklore.
package fuse

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a DAG node's output tensor, matching the color code of
// Table 1.
type Kind int

// Tensor kinds. Virtual marks n×n dense intermediates that must never be
// materialized (the gray matrices of Table 1).
const (
	Dense Kind = iota
	Sparse
	Virtual
	Vector
	Scalar
	Param
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Dense:
		return "dense"
	case Sparse:
		return "sparse"
	case Virtual:
		return "virtual"
	case Vector:
		return "vector"
	case Scalar:
		return "scalar"
	case Param:
		return "param"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one tensor operation (or input tensor) in the execution DAG.
type Node struct {
	ID     string
	Op     string // "input" for leaves
	Kind   Kind
	Inputs []*Node
}

// DAG is a model's execution graph.
type DAG struct {
	Name  string
	nodes []*Node
	byID  map[string]*Node
}

// NewDAG creates an empty DAG.
func NewDAG(name string) *DAG {
	return &DAG{Name: name, byID: make(map[string]*Node)}
}

// Input declares a leaf tensor.
func (d *DAG) Input(id string, kind Kind) *Node {
	return d.Add(id, "input", kind)
}

// Add appends an operation node. IDs must be unique.
func (d *DAG) Add(id, op string, kind Kind, inputs ...*Node) *Node {
	if _, dup := d.byID[id]; dup {
		panic(fmt.Sprintf("fuse: duplicate node id %q", id))
	}
	n := &Node{ID: id, Op: op, Kind: kind, Inputs: inputs}
	d.nodes = append(d.nodes, n)
	d.byID[id] = n
	return n
}

// Node looks up a node by id.
func (d *DAG) Node(id string) *Node { return d.byID[id] }

// Nodes returns all nodes in insertion order.
func (d *DAG) Nodes() []*Node { return d.nodes }

// consumers builds the reverse adjacency.
func (d *DAG) consumers() map[*Node][]*Node {
	out := make(map[*Node][]*Node)
	for _, n := range d.nodes {
		for _, in := range n.Inputs {
			out[in] = append(out[in], n)
		}
	}
	return out
}

// Group is one fusion group: the virtual operations on the path plus the
// sparse Sampler node that materializes the result — together they compile
// to a single SDDMM-like kernel iterating over the sampler's non-zeros.
type Group struct {
	Virtual []*Node // virtual intermediates, topological order
	Sampler *Node   // sparse node that samples them
}

// String renders the group as "virt1+virt2 -> sampler".
func (g Group) String() string {
	ids := make([]string, len(g.Virtual))
	for i, n := range g.Virtual {
		ids[i] = n.ID
	}
	return strings.Join(ids, "+") + " -> " + g.Sampler.ID
}

// Analyze applies the Section 6.2 rule: every maximal connected set of
// virtual nodes, together with the sparse node that consumes it, forms one
// fusion group. It returns the groups sorted by sampler id, and panics if a
// virtual node escapes into a dense or vector consumer without passing
// through a sparse sampler — that would force materializing an n×n matrix,
// which the design forbids.
func Analyze(d *DAG) []Group {
	cons := d.consumers()
	assigned := make(map[*Node]*Node) // virtual node -> sampler
	var groups []Group

	// Walk from each sparse node backwards over contiguous virtual inputs.
	for _, n := range d.nodes {
		if n.Kind != Sparse {
			continue
		}
		var virt []*Node
		seen := make(map[*Node]bool)
		var collect func(m *Node)
		collect = func(m *Node) {
			for _, in := range m.Inputs {
				if in.Kind == Virtual && !seen[in] {
					seen[in] = true
					collect(in)
					virt = append(virt, in)
				}
			}
		}
		collect(n)
		if len(virt) == 0 {
			continue
		}
		for _, v := range virt {
			assigned[v] = n
		}
		groups = append(groups, Group{Virtual: virt, Sampler: n})
	}

	// Safety: every virtual node must be consumed exclusively through its
	// group's sampler chain (virtual→virtual or virtual→sparse edges only).
	for _, n := range d.nodes {
		if n.Kind != Virtual {
			continue
		}
		for _, c := range cons[n] {
			if c.Kind != Virtual && c.Kind != Sparse {
				panic(fmt.Sprintf("fuse: virtual node %q consumed by %s node %q — would require materialization",
					n.ID, c.Kind, c.ID))
			}
		}
		if assigned[n] == nil {
			panic(fmt.Sprintf("fuse: virtual node %q is never sampled by a sparse operation", n.ID))
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Sampler.ID < groups[j].Sampler.ID })
	return groups
}
