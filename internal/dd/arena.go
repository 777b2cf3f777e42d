package dd

// Slab arenas for decision-diagram nodes.
//
// The live engine used to heap-allocate one *VNode/*MNode per unique-table
// miss and leave collection entirely to the Go GC: a swept node stayed
// resident until the runtime traced the whole heap, and every allocation
// paid mallocgc. The arena replaces that with per-manager slabs — fixed-size
// chunks of nodes allocated in bulk — plus an explicit free list the
// Manager's own mark-and-sweep feeds:
//
//   - Allocation is a free-list pop or a bump-pointer step into the current
//     slab; a new slab is one make([]VNode, slabSize) per 4096 nodes.
//   - Node pointers are stable for the life of the Manager (slabs are never
//     moved or shrunk), so everything that identifies nodes by pointer —
//     compute caches and diagnostic maps — keeps working.
//   - Every node carries its arena slot index (id). Ids are dense, which
//     lets the freeze pass and the hash tables replace pointer-keyed maps
//     with flat arrays, and gives the unique-table hash a stable, cheap
//     identity for child references.
//   - Sweeping returns dead slots to the free list instead of dropping them
//     for the Go GC to find: the next makeVNode reuses the slot with zero
//     allocator traffic.
//
// The cost of recycling is a sharper lifetime rule: after Manager.GC, edges
// that were not passed as roots are dead — their slots may be reissued to
// brand-new nodes. The pre-arena engine let such edges linger as valid (if
// uncanonical) structures; no caller relied on that, and gc.go now
// documents the stricter contract. Freed slots are marked with V = freedLevel
// so a stale traversal fails the level invariant loudly instead of reading
// plausible garbage.

// slabBits sizes one slab at 2^slabBits nodes: large enough that slab
// allocation is rare, small enough that a tiny Manager doesn't pin megabytes.
const slabBits = 12

// slabSize is the number of nodes per slab.
const slabSize = 1 << slabBits

// freedLevel is the V value of a node whose slot sits on the free list.
// Levels of live nodes are always >= 0, so any walk that reaches a freed
// slot trips the level invariant immediately.
const freedLevel = -1

// vArena owns every VNode a Manager ever creates.
type vArena struct {
	slabs [][]VNode
	next  int32   // id of the next never-used slot (bump pointer)
	free  []int32 // slot ids returned by the sweep, reused LIFO
}

// len returns the total number of slots ever issued (live + free). Node ids
// are always < len, which sizes the id-indexed scratch arrays.
func (a *vArena) len() int32 { return a.next }

// at returns the node occupying slot id.
func (a *vArena) at(id int32) *VNode {
	return &a.slabs[id>>slabBits][id&(slabSize-1)]
}

// alloc returns a zeroed node with its id set, reusing a freed slot when one
// is available and bump-allocating (growing by one slab as needed) otherwise.
func (a *vArena) alloc() *VNode {
	if k := len(a.free) - 1; k >= 0 {
		id := a.free[k]
		a.free = a.free[:k]
		n := a.at(id)
		*n = VNode{id: id}
		return n
	}
	if int(a.next)>>slabBits == len(a.slabs) {
		a.slabs = append(a.slabs, make([]VNode, slabSize))
	}
	n := a.at(a.next)
	n.id = a.next
	a.next++
	return n
}

// release marks the node's slot dead and pushes it onto the free list. The
// successor edges are cleared so a freed slot never keeps stale structure.
func (a *vArena) release(n *VNode) {
	id := n.id
	*n = VNode{id: id, V: freedLevel}
	a.free = append(a.free, id)
}

// mArena is the matrix-node arena; identical mechanics.
type mArena struct {
	slabs [][]MNode
	next  int32
	free  []int32
}

func (a *mArena) len() int32 { return a.next }

func (a *mArena) at(id int32) *MNode {
	return &a.slabs[id>>slabBits][id&(slabSize-1)]
}

func (a *mArena) alloc() *MNode {
	if k := len(a.free) - 1; k >= 0 {
		id := a.free[k]
		a.free = a.free[:k]
		n := a.at(id)
		*n = MNode{id: id}
		return n
	}
	if int(a.next)>>slabBits == len(a.slabs) {
		a.slabs = append(a.slabs, make([]MNode, slabSize))
	}
	n := a.at(a.next)
	n.id = a.next
	a.next++
	return n
}

func (a *mArena) release(n *MNode) {
	id := n.id
	*n = MNode{id: id, V: freedLevel}
	a.free = append(a.free, id)
}
