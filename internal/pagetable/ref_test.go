package pagetable

import (
	"fmt"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// refTable is the map-based page table that Table replaced, kept as the
// reference model FuzzTableOps checks the flat form against. Every PTE
// lives in one map keyed by its physical address; a PWC caches node base
// addresses rather than node indexes.
type refTable struct {
	Geo   Geometry
	root  phys.Addr
	alloc FrameSource
	pte   map[phys.Addr]phys.Addr
	nodes []phys.Addr
}

func newRefTable(geo Geometry, alloc FrameSource) (*refTable, error) {
	t := &refTable{Geo: geo, alloc: alloc, pte: make(map[phys.Addr]phys.Addr)}
	root, ok := alloc.Alloc()
	if !ok {
		return nil, fmt.Errorf("pagetable: out of memory allocating root")
	}
	t.root = root
	t.nodes = append(t.nodes, root)
	return t, nil
}

func (t *refTable) indexAt(va uint64, k int) uint64 {
	shift := t.Geo.PageShift + uint(indexBits*(t.Geo.Levels-1-k))
	return (va >> shift) & (1<<indexBits - 1)
}

func (t *refTable) prefixAt(va uint64, k int) uint64 {
	shift := t.Geo.PageShift + uint(indexBits*(t.Geo.Levels-k))
	return va >> shift
}

func (t *refTable) Map(va uint64, frame phys.Addr) error {
	mask := t.Geo.PageSize() - 1
	if va&mask != 0 || uint64(frame)&mask != 0 {
		return fmt.Errorf("pagetable: unaligned mapping %#x -> %v", va, frame)
	}
	node := t.root
	for k := 0; k < t.Geo.Levels-1; k++ {
		e := pteAddr(node, t.indexAt(va, k))
		next, ok := t.pte[e]
		if !ok {
			n, okAlloc := t.alloc.Alloc()
			if !okAlloc {
				return fmt.Errorf("pagetable: out of memory allocating node")
			}
			t.nodes = append(t.nodes, n)
			t.pte[e] = n
			next = n
		}
		node = next
	}
	t.pte[pteAddr(node, t.indexAt(va, t.Geo.Levels-1))] = frame
	return nil
}

func (t *refTable) Unmap(va uint64) bool {
	node, ok := t.nodeFor(va)
	if !ok {
		return false
	}
	e := pteAddr(node, t.indexAt(va, t.Geo.Levels-1))
	if _, ok := t.pte[e]; !ok {
		return false
	}
	delete(t.pte, e)
	return true
}

func (t *refTable) nodeFor(va uint64) (phys.Addr, bool) {
	node := t.root
	for k := 0; k < t.Geo.Levels-1; k++ {
		next, ok := t.pte[pteAddr(node, t.indexAt(va, k))]
		if !ok {
			return 0, false
		}
		node = next
	}
	return node, true
}

func (t *refTable) Lookup(va uint64) (phys.Addr, bool) {
	node, ok := t.nodeFor(va)
	if !ok {
		return phys.NoAddr, false
	}
	frame, ok := t.pte[pteAddr(node, t.indexAt(va, t.Geo.Levels-1))]
	if !ok {
		return phys.NoAddr, false
	}
	return frame + phys.Addr(va&(t.Geo.PageSize()-1)), true
}

func (t *refTable) Walk(va uint64, pwc *tlb.PWC) WalkResult {
	node := t.root
	start := 0
	if pwc != nil {
		for k := t.Geo.Levels - 1; k >= 1; k-- {
			if base, ok := pwc.Lookup(k, t.prefixAt(va, k)); ok {
				node = phys.Addr(base)
				start = k
				break
			}
		}
	}
	var res WalkResult
	for k := start; k < t.Geo.Levels; k++ {
		e := pteAddr(node, t.indexAt(va, k))
		res.Accesses = append(res.Accesses, e)
		val, ok := t.pte[e]
		if !ok {
			return res
		}
		if k < t.Geo.Levels-1 {
			node = val
			if pwc != nil {
				pwc.Insert(k+1, t.prefixAt(va, k+1), uint64(val))
			}
		} else {
			res.Phys = val + phys.Addr(va&(t.Geo.PageSize()-1))
			res.OK = true
		}
	}
	return res
}

// refNestedWalk is the map-based 2D walk NestedTable.Walk replaced.
func refNestedWalk(guest, host *refTable, gva uint64, hostPWC, guestPWC *tlb.PWC) NestedWalkResult {
	var res NestedWalkResult
	g := guest
	node := g.root
	start := 0
	if guestPWC != nil {
		for k := g.Geo.Levels - 1; k >= 1; k-- {
			if base, ok := guestPWC.Lookup(k, g.prefixAt(gva, k)); ok {
				node = phys.Addr(base)
				start = k
				break
			}
		}
	}
	for k := start; k < g.Geo.Levels; k++ {
		gpaOfPTE := pteAddr(node, g.indexAt(gva, k))
		hw := host.Walk(uint64(gpaOfPTE), hostPWC)
		res.Accesses = append(res.Accesses, hw.Accesses...)
		res.HostAccesses += len(hw.Accesses)
		if !hw.OK {
			return res
		}
		res.Accesses = append(res.Accesses, hw.Phys)
		res.GuestAccesses++
		val, ok := g.pte[gpaOfPTE]
		if !ok {
			return res
		}
		if k < g.Geo.Levels-1 {
			node = val
			if guestPWC != nil {
				guestPWC.Insert(k+1, g.prefixAt(gva, k+1), uint64(val))
			}
		} else {
			gpa := val + phys.Addr(gva&(g.Geo.PageSize()-1))
			hw := host.Walk(uint64(gpa), hostPWC)
			res.Accesses = append(res.Accesses, hw.Accesses...)
			res.HostAccesses += len(hw.Accesses)
			if !hw.OK {
				return res
			}
			res.Phys = hw.Phys
			res.OK = true
		}
	}
	return res
}
