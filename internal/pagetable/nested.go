package pagetable

import (
	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// NestedTable models hardware nested paging (two-dimensional walks): a
// guest table translating guest-virtual to guest-physical addresses, whose
// own nodes live in guest-physical memory, composed with a host table
// translating guest-physical to host-physical addresses.
//
// A TLB miss therefore triggers the 2D walk of §1: every guest PTE access
// is a guest-physical address that must first be translated through the
// host table, and the final guest-physical data address needs one more host
// walk. With 4-level tables on both dimensions this costs up to
// (4+1)×(4+1)−1 = 24 memory accesses.
type NestedTable struct {
	// Guest translates gVA -> gPA; its "physical" addresses are gPAs.
	Guest *Table
	// Host translates gPA -> hPA.
	Host *Table
	// buf backs NestedWalkResult.Accesses, under the same aliasing rule
	// as WalkResult.Accesses: valid until this table's next Walk.
	buf []phys.Addr
}

// NestedWalkResult extends WalkResult with a breakdown of where the
// accesses came from.
type NestedWalkResult struct {
	WalkResult
	GuestAccesses int // guest-dimension PTE reads
	HostAccesses  int // host-dimension PTE reads
}

// Walk performs the full 2D walk of gva. hostPWC accelerates the host
// dimension; guestPWC (the "2D page-walk cache" Virtual-2M is augmented
// with, §7.2 footnote 4) caches guest-dimension nodes and may be nil.
// All returned accesses are host-physical addresses, charged by the caller
// through the cache hierarchy.
//
//vbi:hotpath
func (n *NestedTable) Walk(gva uint64, hostPWC, guestPWC *tlb.PWC) NestedWalkResult {
	var res NestedWalkResult
	g, h := n.Guest, n.Host
	acc := n.buf[:0]
	ni, start := g.walkStart(gva, guestPWC)
	for k := start; k < g.Geo.Levels; k++ {
		idx := g.indexAt(gva, k)
		// Host walk to translate the guest PTE's gPA.
		before := len(acc)
		var hpa phys.Addr
		var ok bool
		acc, hpa, ok = h.walk(uint64(pteAddr(g.nodes[ni], idx)), hostPWC, acc)
		res.HostAccesses += len(acc) - before
		if !ok {
			break // host fault on guest PT node
		}
		// The guest PTE read itself, at its host-physical location.
		//vbi:allow hotalloc append into the table-owned scratch buffer, bounded by MaxAccesses; n.buf retains the capacity across walks
		acc = append(acc, hpa)
		res.GuestAccesses++
		val := g.entries[ni][idx]
		if val == absentEntry {
			break // guest fault
		}
		if k < g.Geo.Levels-1 {
			ni = int(val)
			if guestPWC != nil {
				guestPWC.Insert(k+1, g.prefixAt(gva, k+1), val)
			}
			continue
		}
		// Final host walk for the data gPA.
		gpa := val + gva&(g.Geo.PageSize()-1)
		before = len(acc)
		acc, hpa, ok = h.walk(gpa, hostPWC, acc)
		res.HostAccesses += len(acc) - before
		if ok {
			res.Phys, res.OK = hpa, true
		}
	}
	n.buf = acc
	res.Accesses = acc
	return res
}

// MaxAccesses returns the worst-case access count of the 2D walk for the
// configured geometries: (gLevels+1)*(hLevels+1) - 1.
func (n *NestedTable) MaxAccesses() int {
	return (n.Guest.Geo.Levels+1)*(n.Host.Geo.Levels+1) - 1
}
