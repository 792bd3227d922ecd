package phys

import (
	"fmt"
	"sort"
)

// blockKey uniquely names an existing buddy block: its base address plus its
// order (the same base can exist at several orders after splits, but only
// one of them is live at a time; the key disambiguates book-keeping).
type blockKey struct {
	base  Addr
	order int
}

// refBuddy is the map-backed buddy allocator that Buddy replaced, kept as
// the reference model FuzzBuddyOps checks the chunked form against. Its
// per-frame records are two dense arrays over the whole pool, and the
// blocks allocated out of each owner's reservation live in one map per
// owner, which Unreserve retags. Placement follows the same rules as
// Buddy's: the §5.3 three-level priority, lowest base at the smallest
// sufficient order.
type refBuddy struct {
	capacity uint64
	nframes  uint64
	// meta holds the block record of the frame each block starts at.
	meta []uint8
	// ownerOf is the interned owner index of the block starting at each
	// frame (meaningful only where meta has metaLive).
	ownerOf []uint16
	// owners interns distinct reservation owners; owners[0] is the zero
	// Owner ("unreserved").
	owners   []Owner
	ownerIdx map[Owner]uint16

	// freeUnres[o]/freeRes[o] mark the free order-o blocks by block index,
	// split by reservation state; hints are maintained lower bounds on the
	// lowest set bit; counts allow O(1) emptiness tests per order.
	freeUnres [MaxOrder + 1]bitset
	freeRes   [MaxOrder + 1]bitset
	hintUnres [MaxOrder + 1]int
	hintRes   [MaxOrder + 1]int
	cntUnres  [MaxOrder + 1]int
	cntRes    [MaxOrder + 1]int
	// cntResOwn[oi][o] counts reserved-free order-o blocks of owner index
	// oi, for per-owner emptiness tests without a per-owner index.
	cntResOwn [][MaxOrder + 1]int32

	// allocatedFrom indexes allocated blocks carved out of each owner's
	// reservation, so Unreserve can retag them.
	allocatedFrom map[Owner]map[blockKey]struct{}

	freeBytes     uint64
	reservedBytes uint64 // subset of freeBytes that is reserved
}

// newRefBuddy returns a buddy allocator over capacity bytes (rounded down to a
// whole number of frames). The capacity need not be a power of two: the pool
// is seeded with the greedy binary decomposition of the capacity.
func newRefBuddy(capacity uint64) *refBuddy {
	capacity &^= FrameSize - 1
	nframes := capacity >> FrameShift
	b := &refBuddy{
		capacity:      capacity,
		nframes:       nframes,
		meta:          make([]uint8, nframes),
		ownerOf:       make([]uint16, nframes),
		owners:        []Owner{0},
		ownerIdx:      make(map[Owner]uint16),
		cntResOwn:     make([][MaxOrder + 1]int32, 1),
		allocatedFrom: make(map[Owner]map[blockKey]struct{}),
	}
	for o := 0; o <= MaxOrder; o++ {
		nbits := (nframes + OrderBytes(o)>>FrameShift - 1) >> uint(o)
		words := int((nbits + 63) / 64)
		b.freeUnres[o] = make(bitset, words)
		b.freeRes[o] = make(bitset, words)
	}
	// Seed with the largest aligned blocks that fit, high orders first.
	base := Addr(0)
	remaining := capacity
	for o := MaxOrder; o >= 0; o-- {
		sz := OrderBytes(o)
		for remaining >= sz && uint64(base)%sz == 0 {
			b.addFree(base, o, 0)
			base += Addr(sz)
			remaining -= sz
		}
	}
	b.freeBytes = capacity - remaining
	b.capacity = b.freeBytes
	return b
}

// Capacity returns the managed pool size in bytes.
func (b *refBuddy) Capacity() uint64 { return b.capacity }

// FreeBytes returns the total free bytes (reserved free blocks included).
func (b *refBuddy) FreeBytes() uint64 { return b.freeBytes }

// ReservedBytes returns the free bytes currently reserved for some VB.
func (b *refBuddy) ReservedBytes() uint64 { return b.reservedBytes }

// internOwner maps an owner to its stable small index, assigning one on
// first sight. The zero owner is index 0 by construction.
func (b *refBuddy) internOwner(o Owner) uint16 {
	if o == 0 {
		return 0
	}
	if i, ok := b.ownerIdx[o]; ok {
		return i
	}
	if len(b.owners) > 0xfffe {
		panic("phys: too many distinct reservation owners")
	}
	i := uint16(len(b.owners))
	b.owners = append(b.owners, o)
	b.ownerIdx[o] = i
	b.cntResOwn = append(b.cntResOwn, [MaxOrder + 1]int32{})
	return i
}

func (b *refBuddy) addFree(base Addr, order int, owner Owner) {
	fi := uint64(base) >> FrameShift
	b.meta[fi] = metaLive | metaFree | uint8(order)
	oi := b.internOwner(owner)
	b.ownerOf[fi] = oi
	bi := int(fi >> uint(order))
	if oi == 0 {
		b.freeUnres[order].set(bi)
		if bi < b.hintUnres[order] {
			b.hintUnres[order] = bi
		}
		b.cntUnres[order]++
	} else {
		b.freeRes[order].set(bi)
		if bi < b.hintRes[order] {
			b.hintRes[order] = bi
		}
		b.cntRes[order]++
		b.cntResOwn[oi][order]++
		b.reservedBytes += OrderBytes(order)
	}
}

// removeFree deletes the free block starting at base. The recorded owner
// index (not the caller's owner argument) decides which bitmap the block
// leaves, keeping the two views self-consistent by construction.
func (b *refBuddy) removeFree(base Addr, order int) {
	fi := uint64(base) >> FrameShift
	oi := b.ownerOf[fi]
	b.meta[fi] = 0
	bi := int(fi >> uint(order))
	if oi == 0 {
		b.freeUnres[order].clear(bi)
		b.cntUnres[order]--
	} else {
		b.freeRes[order].clear(bi)
		b.cntRes[order]--
		b.cntResOwn[oi][order]--
		b.reservedBytes -= OrderBytes(order)
	}
}

// splitTo repeatedly halves the free block (base, from, owner) until an
// order-"to" block is available, re-tagging all pieces with the same owner.
// It returns the base of the order-"to" block (always == base).
func (b *refBuddy) splitTo(base Addr, from, to int, owner Owner) Addr {
	b.removeFree(base, from)
	for o := from; o > to; o-- {
		half := OrderBytes(o - 1)
		b.addFree(base+Addr(half), o-1, owner)
	}
	b.addFree(base, to, owner)
	return base
}

// takeFreeUnres finds an unreserved free block of order >= want and splits
// it down. Smallest sufficient order first to limit fragmentation; within
// an order the lowest base wins (first fit), so allocation placement — and
// with it bank/row timing — is identical between runs.
func (b *refBuddy) takeFreeUnres(want int) (Addr, bool) {
	for o := want; o <= MaxOrder; o++ {
		if b.cntUnres[o] == 0 {
			continue
		}
		bi := b.freeUnres[o].nextSet(b.hintUnres[o])
		b.hintUnres[o] = bi
		base := Addr(uint64(bi) << uint(FrameShift+o))
		return b.splitTo(base, o, want, 0), true
	}
	return NoAddr, false
}

// firstRes returns the lowest-base free reserved order-o block whose owner
// index matches (equal=true) or differs from (equal=false) target.
func (b *refBuddy) firstRes(order int, target uint16, equal bool) (Addr, uint16, bool) {
	bs := b.freeRes[order]
	bi := bs.nextSet(b.hintRes[order])
	if bi >= 0 {
		// The hint may only advance to the first set bit: later bits are
		// skipped by the filter, not cleared, and must stay reachable.
		b.hintRes[order] = bi
	}
	for bi >= 0 {
		oi := b.ownerOf[uint64(bi)<<uint(order)]
		if (oi == target) == equal {
			return Addr(uint64(bi) << uint(FrameShift+order)), oi, true
		}
		bi = bs.nextSet(bi + 1)
	}
	return NoAddr, 0, false
}

// takeFreeOwned finds a free block reserved for owner of order >= want.
func (b *refBuddy) takeFreeOwned(owner Owner, want int) (Addr, bool) {
	oi, ok := b.ownerIdx[owner]
	if !ok {
		return NoAddr, false
	}
	for o := want; o <= MaxOrder; o++ {
		if b.cntResOwn[oi][o] == 0 {
			continue
		}
		if base, _, ok := b.firstRes(o, oi, true); ok {
			return b.splitTo(base, o, want, owner), true
		}
	}
	return NoAddr, false
}

// takeFreeStolen finds a free block reserved for any owner other than self.
func (b *refBuddy) takeFreeStolen(self Owner, want int) (Addr, Owner, bool) {
	selfIdx := uint16(0)
	if i, ok := b.ownerIdx[self]; ok {
		selfIdx = i
	}
	for o := want; o <= MaxOrder; o++ {
		own := int32(0)
		if selfIdx != 0 {
			own = b.cntResOwn[selfIdx][o]
		}
		if int32(b.cntRes[o])-own <= 0 {
			continue
		}
		if base, oi, ok := b.firstRes(o, selfIdx, false); ok {
			owner := b.owners[oi]
			return b.splitTo(base, o, want, owner), owner, true
		}
	}
	return NoAddr, 0, false
}

// Alloc allocates an order-sized block for VB vb using the three-level
// priority of §5.3. It returns ok=false only when no free block of
// sufficient order exists anywhere.
func (b *refBuddy) Alloc(vb Owner, order int) (Addr, bool) {
	if order < 0 || order > MaxOrder {
		return NoAddr, false
	}
	// Priority 1: free blocks reserved for this VB.
	if base, ok := b.takeFreeOwned(vb, order); ok {
		b.markAllocated(base, order, vb)
		return base, true
	}
	// Priority 2: unreserved free blocks.
	if base, ok := b.takeFreeUnres(order); ok {
		b.markAllocated(base, order, 0)
		return base, true
	}
	// Priority 3: steal from another VB's reservation.
	if base, owner, ok := b.takeFreeStolen(vb, order); ok {
		b.markAllocated(base, order, owner)
		return base, true
	}
	return NoAddr, false
}

func (b *refBuddy) markAllocated(base Addr, order int, reservedOwner Owner) {
	b.removeFree(base, order)
	fi := uint64(base) >> FrameShift
	b.meta[fi] = metaLive | uint8(order)
	b.ownerOf[fi] = b.internOwner(reservedOwner)
	b.freeBytes -= OrderBytes(order)
	if reservedOwner != 0 {
		m := b.allocatedFrom[reservedOwner]
		if m == nil {
			//vbi:allow hotalloc one map per owner with live reservation-backed allocations; owners are few and the map is reused for the owner's lifetime
			m = make(map[blockKey]struct{})
			b.allocatedFrom[reservedOwner] = m
		}
		m[blockKey{base, order}] = struct{}{}
	}
}

// AllocAt allocates the specific order-sized block at base for vb, if that
// exact region is currently free (whether unreserved or reserved for any
// owner). Directly-mapped VBs use it to materialize a 4 KB region at its
// fixed position inside the VB's reservation (§5.3); it fails when the
// region was stolen by another VB under memory pressure, which is the
// signal that the VB has lost its direct mapping.
func (b *refBuddy) AllocAt(vb Owner, base Addr, order int) bool {
	if order < 0 || order > MaxOrder || uint64(base)%OrderBytes(order) != 0 {
		return false
	}
	if uint64(base)>>FrameShift >= b.nframes {
		return false
	}
	// Find the free block containing [base, base+2^order): the smallest
	// enclosing aligned block that exists and is free.
	for o := order; o <= MaxOrder; o++ {
		enclosing := base &^ Addr(OrderBytes(o)-1)
		fi := uint64(enclosing) >> FrameShift
		m := b.meta[fi]
		if m&metaLive == 0 || int(m&metaOrder) != o {
			continue
		}
		if m&metaFree == 0 {
			return false // region (or part of it) already allocated
		}
		owner := b.owners[b.ownerOf[fi]]
		b.splitToAt(enclosing, o, base, order, owner)
		b.markAllocated(base, order, owner)
		return true
	}
	return false
}

// splitToAt splits the free block (blockBase, from, owner) down to an
// order-"to" block at exactly target, keeping every split-off sibling free
// with the same owner.
func (b *refBuddy) splitToAt(blockBase Addr, from int, target Addr, to int, owner Owner) {
	b.removeFree(blockBase, from)
	cur := blockBase
	for o := from; o > to; o-- {
		half := Addr(OrderBytes(o - 1))
		if target >= cur+half {
			b.addFree(cur, o-1, owner) // target in upper half; lower stays free
			cur += half
		} else {
			b.addFree(cur+half, o-1, owner)
		}
	}
	b.addFree(cur, to, owner)
}

// Reserve carves an order-sized contiguous region out of *unreserved* free
// memory and tags it as reserved for vb. Reserved blocks remain free (they
// count toward FreeBytes) but are preferred by vb's future allocations and
// only used by other VBs when nothing unreserved remains.
func (b *refBuddy) Reserve(vb Owner, order int) (Addr, bool) {
	if vb == 0 || order < 0 || order > MaxOrder {
		return NoAddr, false
	}
	base, ok := b.takeFreeUnres(order)
	if !ok {
		return NoAddr, false
	}
	// Retag the block as reserved-free for vb.
	b.removeFree(base, order)
	b.addFree(base, order, vb)
	return base, true
}

// Free returns an allocated block to the pool. The block rejoins the
// reservation it was carved from (if that reservation still stands) and
// merges with same-state buddies.
func (b *refBuddy) Free(base Addr, order int) {
	fi := uint64(base) >> FrameShift
	var m uint8
	if order >= 0 && order <= MaxOrder && fi < b.nframes {
		m = b.meta[fi]
	}
	if m&metaLive == 0 || int(m&metaOrder) != order || m&metaFree != 0 {
		//vbi:allow hotalloc panic formatting on a caller bug, never reached by a correct simulation
		panic(fmt.Sprintf("phys: Free of non-allocated block %v order %d", base, order))
	}
	owner := b.owners[b.ownerOf[fi]]
	b.meta[fi] = 0
	if owner != 0 {
		k := blockKey{base, order}
		if am := b.allocatedFrom[owner]; am != nil {
			delete(am, k)
			if len(am) == 0 {
				delete(b.allocatedFrom, owner)
			}
		}
	}
	b.freeBytes += OrderBytes(order)
	b.freeAndMerge(base, order, owner)
}

func (b *refBuddy) freeAndMerge(base Addr, order int, owner Owner) {
	for order < MaxOrder {
		buddy := base ^ Addr(OrderBytes(order))
		bfi := uint64(buddy) >> FrameShift
		if bfi >= b.nframes {
			break
		}
		m := b.meta[bfi]
		if m&metaLive == 0 || m&metaFree == 0 || int(m&metaOrder) != order {
			break
		}
		if b.owners[b.ownerOf[bfi]] != owner {
			break
		}
		b.removeFree(buddy, order)
		if buddy < base {
			base = buddy
		}
		order++
	}
	b.addFree(base, order, owner)
}

// Unreserve releases vb's reservation: its remaining reserved-free blocks
// become unreserved free blocks, and blocks still allocated out of the
// reservation are retagged so that freeing them later returns them to the
// unreserved pool.
func (b *refBuddy) Unreserve(vb Owner) {
	if oi, ok := b.ownerIdx[vb]; ok {
		type fb struct {
			base  Addr
			order int
		}
		var blocks []fb
		for o := 0; o <= MaxOrder; o++ {
			if b.cntResOwn[oi][o] == 0 {
				continue
			}
			bs := b.freeRes[o]
			for bi := bs.nextSet(b.hintRes[o]); bi >= 0; bi = bs.nextSet(bi + 1) {
				if b.ownerOf[uint64(bi)<<uint(o)] == oi {
					blocks = append(blocks, fb{Addr(uint64(bi) << uint(FrameShift+o)), o})
				}
			}
		}
		// Deterministic order for reproducible merging.
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].base < blocks[j].base })
		for _, blk := range blocks {
			b.removeFree(blk.base, blk.order)
			b.freeAndMerge(blk.base, blk.order, 0)
		}
	}
	if m := b.allocatedFrom[vb]; m != nil {
		//vbi:allow maporder retagging each block's owner independently; no state read depends on visit order
		for k := range m {
			b.ownerOf[uint64(k.base)>>FrameShift] = 0
		}
		delete(b.allocatedFrom, vb)
	}
}

// LargestFreeOrder returns the order of the largest allocatable contiguous
// block available to vb at each priority level combined (i.e. the largest
// block Alloc(vb, order) would currently succeed for), or -1 when nothing
// is free.
func (b *refBuddy) LargestFreeOrder(vb Owner) int {
	vbIdx, hasIdx := b.ownerIdx[vb]
	for o := MaxOrder; o >= 0; o-- {
		if b.cntUnres[o] > 0 {
			return o
		}
		own := int32(0)
		if hasIdx {
			own = b.cntResOwn[vbIdx][o]
		}
		if own > 0 {
			return o
		}
		if int32(b.cntRes[o])-own > 0 {
			return o
		}
	}
	return -1
}

// LargestUnreservedOrder returns the order of the largest unreserved free
// block (the contiguity Reserve can still satisfy), or -1 when none.
func (b *refBuddy) LargestUnreservedOrder() int {
	for o := MaxOrder; o >= 0; o-- {
		if b.cntUnres[o] > 0 {
			return o
		}
	}
	return -1
}
