// Package pagetable implements the conventional-baseline translation
// machinery: x86-64-style radix page tables built in simulated physical
// memory, hardware walks accelerated by page-walk caches, and the
// two-dimensional (nested) walks of virtualized systems, which require up
// to 24 memory accesses for 4-level tables — the overhead VBI eliminates
// (§1, §3.5).
package pagetable

import (
	"fmt"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// indexBits is the radix width per level (512 entries of 8 bytes = 4 KB
// nodes, as in x86-64).
const indexBits = 9

// entrySize is the size of one PTE in bytes.
const entrySize = 8

// Geometry describes a page-table shape.
type Geometry struct {
	Levels    int  // 4 for 4 KB pages, 3 for 2 MB pages
	PageShift uint // 12 or 21
}

// Page4K is the 4-level, 4 KB-page geometry of x86-64.
var Page4K = Geometry{Levels: 4, PageShift: 12}

// Page2M is the 3-level, 2 MB-page geometry (leaf at the PD level).
var Page2M = Geometry{Levels: 3, PageShift: 21}

// PageSize returns the mapped page size in bytes.
func (g Geometry) PageSize() uint64 { return 1 << g.PageShift }

// FrameSource supplies 4 KB frames for table nodes.
type FrameSource interface {
	Alloc() (phys.Addr, bool)
}

// Table is one radix page table instance living in a simulated physical
// address space. The table is functional: Map establishes real mappings and
// Walk retraces the exact PTE addresses hardware would touch, so the timing
// model can charge each access through the cache hierarchy.
//
// Node contents are flat per-node arrays (entries[ni], parallel to
// nodes[ni]), following mtl.radixTable: every operation descends by node
// index with plain array reads and no map operations. Interior entries
// hold the child's node index; leaf-level entries hold the mapped frame.
type Table struct {
	Geo   Geometry
	alloc FrameSource
	// nodes holds the physical base of every allocated table node, root
	// first; entries[ni] holds node ni's PTE values.
	nodes   []phys.Addr
	entries [][]uint64
	// walkBuf backs WalkResult.Accesses (see there).
	walkBuf []phys.Addr
}

// absentEntry marks a non-present PTE. It can never collide with a payload:
// child node indexes are small, and mapped frames are page-aligned.
const absentEntry = ^uint64(0)

// newNodeEntries returns an all-absent node of 512 PTEs.
func newNodeEntries() []uint64 {
	e := make([]uint64, 1<<indexBits)
	for i := range e {
		e[i] = absentEntry
	}
	return e
}

// New allocates an empty table (and its root node) from alloc.
func New(geo Geometry, alloc FrameSource) (*Table, error) {
	t := &Table{Geo: geo, alloc: alloc, walkBuf: make([]phys.Addr, 0, geo.Levels)}
	root, ok := alloc.Alloc()
	if !ok {
		return nil, fmt.Errorf("pagetable: out of memory allocating root")
	}
	t.nodes = append(t.nodes, root)
	t.entries = append(t.entries, newNodeEntries())
	return t, nil
}

// Root returns the physical address of the root node (CR3 analogue).
func (t *Table) Root() phys.Addr { return t.nodes[0] }

// NodeBytes returns the memory consumed by table nodes.
func (t *Table) NodeBytes() uint64 { return uint64(len(t.nodes)) * phys.FrameSize }

// indexAt returns the radix index consumed at walk level k (0 = root).
func (t *Table) indexAt(va uint64, k int) uint64 {
	shift := t.Geo.PageShift + uint(indexBits*(t.Geo.Levels-1-k))
	return (va >> shift) & (1<<indexBits - 1)
}

// prefixAt returns the address prefix that identifies the node entered
// after consuming k levels (used as the PWC key for that node).
func (t *Table) prefixAt(va uint64, k int) uint64 {
	shift := t.Geo.PageShift + uint(indexBits*(t.Geo.Levels-k))
	return va >> shift
}

// pteAddr returns the physical address of the PTE at (node, index).
func pteAddr(node phys.Addr, index uint64) phys.Addr {
	return node + phys.Addr(index*entrySize)
}

// Map installs va -> frame. The va and frame must be page-aligned for the
// geometry. Intermediate nodes are allocated on demand.
func (t *Table) Map(va uint64, frame phys.Addr) error {
	mask := t.Geo.PageSize() - 1
	if va&mask != 0 || uint64(frame)&mask != 0 {
		return fmt.Errorf("pagetable: unaligned mapping %#x -> %v", va, frame)
	}
	ni := 0
	for k := 0; k < t.Geo.Levels-1; k++ {
		idx := t.indexAt(va, k)
		next := t.entries[ni][idx]
		if next == absentEntry {
			n, ok := t.alloc.Alloc()
			if !ok {
				return fmt.Errorf("pagetable: out of memory allocating node")
			}
			next = uint64(len(t.nodes))
			t.nodes = append(t.nodes, n)
			t.entries = append(t.entries, newNodeEntries())
			t.entries[ni][idx] = next
		}
		ni = int(next)
	}
	t.entries[ni][t.indexAt(va, t.Geo.Levels-1)] = uint64(frame)
	return nil
}

// Unmap removes the leaf mapping for va (intermediate nodes are retained).
// It reports whether a mapping existed.
func (t *Table) Unmap(va uint64) bool {
	ni, ok := t.leafNode(va)
	if !ok {
		return false
	}
	e := &t.entries[ni][t.indexAt(va, t.Geo.Levels-1)]
	if *e == absentEntry {
		return false
	}
	*e = absentEntry
	return true
}

// leafNode returns the index of the leaf-level node covering va.
//
//vbi:hotpath
func (t *Table) leafNode(va uint64) (int, bool) {
	ni := 0
	for k := 0; k < t.Geo.Levels-1; k++ {
		next := t.entries[ni][t.indexAt(va, k)]
		if next == absentEntry {
			return 0, false
		}
		ni = int(next)
	}
	return ni, true
}

// Lookup functionally translates va without modelling any hardware state.
//
//vbi:hotpath
func (t *Table) Lookup(va uint64) (phys.Addr, bool) {
	ni, ok := t.leafNode(va)
	if !ok {
		return phys.NoAddr, false
	}
	frame := t.entries[ni][t.indexAt(va, t.Geo.Levels-1)]
	if frame == absentEntry {
		return phys.NoAddr, false
	}
	return phys.Addr(frame) + phys.Addr(va&(t.Geo.PageSize()-1)), true
}

// WalkResult reports the outcome of a hardware walk.
type WalkResult struct {
	// Accesses lists, in order, the physical addresses of every PTE the
	// walker read. The timing model charges each through the hierarchy.
	// It aliases a scratch buffer owned by the walked Table (or
	// NestedTable) and is valid only until that table's next walk:
	// consume it immediately, never retain it.
	Accesses []phys.Addr
	// Phys is the translated physical address (page base + offset).
	Phys phys.Addr
	// OK is false when the walk hit a hole (page fault).
	OK bool
}

// Walk performs a hardware page walk for va, consulting (and filling) the
// page-walk cache if one is supplied. The PWC caches the nodes of the
// levels below the root, letting the walker skip upper-level accesses
// (Barr et al. style "skip, don't walk"). A PWC must only ever serve one
// table: its values are this table's node indexes.
//
//vbi:hotpath
func (t *Table) Walk(va uint64, pwc *tlb.PWC) WalkResult {
	accesses, pa, ok := t.walk(va, pwc, t.walkBuf[:0])
	t.walkBuf = accesses
	return WalkResult{Accesses: accesses, Phys: pa, OK: ok}
}

// walkStart returns the node index and level a walk of va begins at: the
// deepest node the PWC holds, or the root.
//
//vbi:hotpath
func (t *Table) walkStart(va uint64, pwc *tlb.PWC) (ni, start int) {
	if pwc != nil {
		for k := t.Geo.Levels - 1; k >= 1; k-- {
			if cached, ok := pwc.Lookup(k, t.prefixAt(va, k)); ok {
				return int(cached), k
			}
		}
	}
	return 0, 0
}

// walk appends the PTE addresses a hardware walk of va reads to accesses
// and returns it along with the translation and whether va is mapped. A
// walk that hits a hole stops there (page fault) and returns address 0.
//
//vbi:hotpath
func (t *Table) walk(va uint64, pwc *tlb.PWC, accesses []phys.Addr) ([]phys.Addr, phys.Addr, bool) {
	ni, start := t.walkStart(va, pwc)
	for k := start; k < t.Geo.Levels; k++ {
		idx := t.indexAt(va, k)
		//vbi:allow hotalloc append into a caller-owned scratch buffer, bounded by the walk depth; its owner retains the capacity across walks
		accesses = append(accesses, pteAddr(t.nodes[ni], idx))
		val := t.entries[ni][idx]
		if val == absentEntry {
			return accesses, 0, false
		}
		if k == t.Geo.Levels-1 {
			return accesses, phys.Addr(val) + phys.Addr(va&(t.Geo.PageSize()-1)), true
		}
		ni = int(val)
		if pwc != nil {
			pwc.Insert(k+1, t.prefixAt(va, k+1), val)
		}
	}
	return accesses, 0, false
}

// MappedPages returns the number of leaf mappings (for tests/teardown).
func (t *Table) MappedPages() int { return t.countLeaves(0, 0) }

// countLeaves counts the present leaf PTEs under node ni at level k.
func (t *Table) countLeaves(ni, k int) int {
	n := 0
	for _, v := range t.entries[ni] {
		switch {
		case v == absentEntry:
		case k == t.Geo.Levels-1:
			n++
		default:
			n += t.countLeaves(int(v), k+1)
		}
	}
	return n
}
