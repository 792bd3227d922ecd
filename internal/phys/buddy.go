package phys

import (
	"fmt"
	"math/bits"

	"vbi/internal/addr"
)

// Owner identifies the virtual block a reservation or allocation belongs to.
// The zero Owner means "unreserved".
type Owner = addr.VBUID

// MaxOrder bounds block sizes at 4 KB << 28 = 1 TB, far beyond any simulated
// physical capacity.
const MaxOrder = 28

// OrderBytes returns the size in bytes of an order-k buddy block.
func OrderBytes(order int) uint64 { return FrameSize << order }

// OrderFor returns the smallest order whose blocks hold size bytes, and
// ok=false when size exceeds the largest order.
func OrderFor(size uint64) (int, bool) {
	for o := 0; o <= MaxOrder; o++ {
		if size <= OrderBytes(o) {
			return o, true
		}
	}
	return 0, false
}

// Per-frame block metadata, indexed by frame number (base >> FrameShift).
// Only the frame a block *starts* at carries its record; since at most one
// block is live at a given base, one byte suffices: liveness, freeness and
// the block's order. A zero record means no live block starts there.
const (
	metaLive  uint8 = 1 << 7
	metaFree  uint8 = 1 << 6
	metaOrder uint8 = 0x1f
)

// chunkShift sets the frames per frameChunk: 4096 frames, 16 MB of pool.
const (
	chunkShift  = 12
	chunkFrames = 1 << chunkShift
)

// frameChunk holds the block records of chunkFrames consecutive frames:
// each frame's metadata byte and the interned owner index of the block
// starting there (meaningful only where meta has metaLive).
type frameChunk struct {
	meta  [chunkFrames]uint8
	owner [chunkFrames]uint16
}

// bitset is a fixed-size bit vector over block indexes (frame >> order).
type bitset []uint64

func (bs bitset) set(i int)   { bs[i>>6] |= 1 << (uint(i) & 63) }
func (bs bitset) clear(i int) { bs[i>>6] &^= 1 << (uint(i) & 63) }

// nextSet returns the first set bit >= from, or -1 when none remains.
func (bs bitset) nextSet(from int) int {
	if from < 0 {
		from = 0
	}
	w := from >> 6
	if w >= len(bs) {
		return -1
	}
	word := bs[w] & (^uint64(0) << (uint(from) & 63))
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(bs) {
			return -1
		}
		word = bs[w]
	}
}

// Buddy is a binary-buddy allocator with per-VB reservations (§5.3).
//
// A reservation is an ordinary free block tagged with the owning VB. When
// VB X requests memory the allocator uses a three-level priority: (1) free
// blocks reserved for X, (2) unreserved free blocks, (3) free blocks
// reserved for other VBs (stealing, used only under memory pressure by
// construction of the priority order).
//
// Book-keeping needs no map beyond owner interning: block existence,
// state and owner live in per-frame records, and the free blocks of each
// order are tracked in per-order bitmaps searched lowest-base-first with
// find-first-set. A per-order hint (a lower bound below which no bit is
// set) makes the first-fit scan effectively O(1) under the allocator's own
// first-fit placement. The per-frame records are split into frameChunks
// that are allocated on first write, so a machine pays for the records of
// the memory its blocks actually touch rather than for its whole pool.
// Placement is identical to the map-backed implementation this replaced —
// both pick the lowest base at the smallest sufficient order — which
// matters because region allocation sits on the machine-construction path
// (Prefill) and, under delayed allocation (§5.1), on the per-writeback
// path of the simulated run.
type Buddy struct {
	capacity uint64
	nframes  uint64
	// chunks holds the per-frame block records, chunkFrames frames per
	// chunk; a nil chunk has no live block starting in it.
	chunks []*frameChunk
	// ownerIdx interns reservation owners as small indexes, from 1; index
	// 0 is the zero Owner ("unreserved").
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
	// oi, for per-owner emptiness tests without a per-owner index;
	// cntResOwn[0] stays zero.
	cntResOwn [][MaxOrder + 1]int32
	// allocOwn[oi] counts the live allocated blocks whose record carries
	// owner index oi (index 0: blocks from no reservation), so Unreserve
	// knows when its scan has retagged them all.
	allocOwn []int32
	// resLow[oi] is the lowest frame Reserve has handed to owner index oi
	// since its last Unreserve (^uint64(0) when none). Every block that
	// carries oi lies inside those reservations, so Unreserve starts there.
	resLow []uint64

	freeBytes     uint64
	reservedBytes uint64 // subset of freeBytes that is reserved
}

// NewBuddy returns a buddy allocator over capacity bytes (rounded down to a
// whole number of frames). The capacity need not be a power of two: the pool
// is seeded with the greedy binary decomposition of the capacity.
func NewBuddy(capacity uint64) *Buddy {
	capacity &^= FrameSize - 1
	nframes := capacity >> FrameShift
	b := &Buddy{
		capacity:  capacity,
		nframes:   nframes,
		chunks:    make([]*frameChunk, (nframes+chunkFrames-1)>>chunkShift),
		ownerIdx:  make(map[Owner]uint16),
		cntResOwn: make([][MaxOrder + 1]int32, 1),
		allocOwn:  make([]int32, 1),
		resLow:    []uint64{^uint64(0)},
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
func (b *Buddy) Capacity() uint64 { return b.capacity }

// FreeBytes returns the total free bytes (reserved free blocks included).
func (b *Buddy) FreeBytes() uint64 { return b.freeBytes }

// ReservedBytes returns the free bytes currently reserved for some VB.
func (b *Buddy) ReservedBytes() uint64 { return b.reservedBytes }

// chunk returns the records of the chunk holding frame fi, allocating
// them on first write.
//
//vbi:hotpath
func (b *Buddy) chunk(fi uint64) *frameChunk {
	c := b.chunks[fi>>chunkShift]
	if c == nil {
		//vbi:allow hotalloc once per 16 MB of pool a block first starts in; later writes reuse it
		c = new(frameChunk)
		b.chunks[fi>>chunkShift] = c
	}
	return c
}

// metaAt returns the block record of frame fi; 0 means no live block
// starts there.
//
//vbi:hotpath
func (b *Buddy) metaAt(fi uint64) uint8 {
	if c := b.chunks[fi>>chunkShift]; c != nil {
		return c.meta[fi&(chunkFrames-1)]
	}
	return 0
}

// ownerAt returns the owner index of the block starting at frame fi.
//
//vbi:hotpath
func (b *Buddy) ownerAt(fi uint64) uint16 {
	if c := b.chunks[fi>>chunkShift]; c != nil {
		return c.owner[fi&(chunkFrames-1)]
	}
	return 0
}

// internOwner maps an owner to its stable small index, assigning one on
// first sight. The zero owner is index 0 by construction.
func (b *Buddy) internOwner(o Owner) uint16 {
	if o == 0 {
		return 0
	}
	if i, ok := b.ownerIdx[o]; ok {
		return i
	}
	if len(b.allocOwn) > 0xfffe {
		panic("phys: too many distinct reservation owners")
	}
	i := uint16(len(b.allocOwn))
	b.ownerIdx[o] = i
	b.cntResOwn = append(b.cntResOwn, [MaxOrder + 1]int32{})
	b.allocOwn = append(b.allocOwn, 0)
	b.resLow = append(b.resLow, ^uint64(0))
	return i
}

// addFree adds the free block (base, order) for owner index oi.
//
//vbi:hotpath
func (b *Buddy) addFree(base Addr, order int, oi uint16) {
	fi := uint64(base) >> FrameShift
	c, i := b.chunk(fi), fi&(chunkFrames-1)
	c.meta[i], c.owner[i] = metaLive|metaFree|uint8(order), oi
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
//
//vbi:hotpath
func (b *Buddy) removeFree(base Addr, order int) {
	fi := uint64(base) >> FrameShift
	c := b.chunk(fi)
	oi := c.owner[fi&(chunkFrames-1)]
	c.meta[fi&(chunkFrames-1)] = 0
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

// takeFreeUnres finds an unreserved free block of order >= want and splits
// it down. Smallest sufficient order first to limit fragmentation; within
// an order the lowest base wins (first fit), so allocation placement — and
// with it bank/row timing — is identical between runs.
//
//vbi:hotpath
func (b *Buddy) takeFreeUnres(want int) (Addr, bool) {
	for o := want; o <= MaxOrder; o++ {
		if b.cntUnres[o] == 0 {
			continue
		}
		bi := b.freeUnres[o].nextSet(b.hintUnres[o])
		b.hintUnres[o] = bi
		base := Addr(uint64(bi) << uint(FrameShift+o))
		b.splitToAt(base, o, base, want, 0)
		return base, true
	}
	return NoAddr, false
}

// firstRes returns the lowest-base free reserved order-o block whose owner
// index matches (equal=true) or differs from (equal=false) target.
func (b *Buddy) firstRes(order int, target uint16, equal bool) (Addr, uint16, bool) {
	bs := b.freeRes[order]
	bi := bs.nextSet(b.hintRes[order])
	if bi >= 0 {
		// The hint may only advance to the first set bit: later bits are
		// skipped by the filter, not cleared, and must stay reachable.
		b.hintRes[order] = bi
	}
	for bi >= 0 {
		oi := b.ownerAt(uint64(bi) << uint(order))
		if (oi == target) == equal {
			return Addr(uint64(bi) << uint(FrameShift+order)), oi, true
		}
		bi = bs.nextSet(bi + 1)
	}
	return NoAddr, 0, false
}

// takeFreeOwned finds a free block of order >= want reserved for owner
// index oi.
func (b *Buddy) takeFreeOwned(oi uint16, want int) (Addr, bool) {
	if oi == 0 {
		return NoAddr, false // index 0 holds no reserved blocks
	}
	for o := want; o <= MaxOrder; o++ {
		if b.cntResOwn[oi][o] == 0 {
			continue
		}
		if base, _, ok := b.firstRes(o, oi, true); ok {
			b.splitToAt(base, o, base, want, oi)
			return base, true
		}
	}
	return NoAddr, false
}

// takeFreeStolen finds a free block reserved for any owner index other
// than selfIdx.
func (b *Buddy) takeFreeStolen(selfIdx uint16, want int) (Addr, bool) {
	for o := want; o <= MaxOrder; o++ {
		if int32(b.cntRes[o])-b.cntResOwn[selfIdx][o] <= 0 {
			continue
		}
		if base, oi, ok := b.firstRes(o, selfIdx, false); ok {
			b.splitToAt(base, o, base, want, oi)
			return base, true
		}
	}
	return NoAddr, false
}

// Alloc allocates an order-sized block for VB vb using the three-level
// priority of §5.3. It returns ok=false only when no free block of
// sufficient order exists anywhere.
//
//vbi:hotpath
func (b *Buddy) Alloc(vb Owner, order int) (Addr, bool) {
	if order < 0 || order > MaxOrder {
		return NoAddr, false
	}
	oi := b.ownerIdx[vb] // 0 if vb never reserved
	// Priority 1: free blocks reserved for this VB.
	base, ok := b.takeFreeOwned(oi, order)
	if !ok {
		// Priority 2: unreserved free blocks.
		base, ok = b.takeFreeUnres(order)
	}
	if !ok {
		// Priority 3: steal from another VB's reservation.
		base, ok = b.takeFreeStolen(oi, order)
	}
	if ok {
		b.markAllocated(base, order)
	}
	return base, ok
}

// markAllocated turns the free block (base, order) into an allocated one.
// The block keeps the owner index it was free under: the reservation it
// was carved from, which a later Free returns it to.
//
//vbi:hotpath
func (b *Buddy) markAllocated(base Addr, order int) {
	b.removeFree(base, order)
	fi := uint64(base) >> FrameShift
	c, i := b.chunk(fi), fi&(chunkFrames-1)
	c.meta[i] = metaLive | uint8(order)
	b.allocOwn[c.owner[i]]++
	b.freeBytes -= OrderBytes(order)
}

// AllocAt allocates the specific order-sized block at base for vb, if that
// exact region is currently free (whether unreserved or reserved for any
// owner). Directly-mapped VBs use it to materialize a 4 KB region at its
// fixed position inside the VB's reservation (§5.3); it fails when the
// region was stolen by another VB under memory pressure, which is the
// signal that the VB has lost its direct mapping.
//
//vbi:hotpath
func (b *Buddy) AllocAt(vb Owner, base Addr, order int) bool {
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
		m := b.metaAt(fi)
		if m&metaLive == 0 || int(m&metaOrder) != o {
			continue
		}
		if m&metaFree == 0 {
			return false // region (or part of it) already allocated
		}
		b.splitToAt(enclosing, o, base, order, b.ownerAt(fi))
		b.markAllocated(base, order)
		return true
	}
	return false
}

// splitToAt splits the free block (blockBase, from) of owner index oi down
// to an order-"to" block at exactly target, keeping every split-off sibling
// free with the same owner.
//
//vbi:hotpath
func (b *Buddy) splitToAt(blockBase Addr, from int, target Addr, to int, oi uint16) {
	b.removeFree(blockBase, from)
	cur := blockBase
	for o := from; o > to; o-- {
		half := Addr(OrderBytes(o - 1))
		if target >= cur+half {
			b.addFree(cur, o-1, oi) // target in upper half; lower stays free
			cur += half
		} else {
			b.addFree(cur+half, o-1, oi)
		}
	}
	b.addFree(cur, to, oi)
}

// Reserve carves an order-sized contiguous region out of *unreserved* free
// memory and tags it as reserved for vb. Reserved blocks remain free (they
// count toward FreeBytes) but are preferred by vb's future allocations and
// only used by other VBs when nothing unreserved remains.
func (b *Buddy) Reserve(vb Owner, order int) (Addr, bool) {
	if vb == 0 || order < 0 || order > MaxOrder {
		return NoAddr, false
	}
	base, ok := b.takeFreeUnres(order)
	if !ok {
		return NoAddr, false
	}
	// Retag the block as reserved-free for vb.
	oi := b.internOwner(vb)
	b.removeFree(base, order)
	b.addFree(base, order, oi)
	b.resLow[oi] = min(b.resLow[oi], uint64(base)>>FrameShift)
	return base, true
}

// Free returns an allocated block to the pool. The block rejoins the
// reservation it was carved from (if that reservation still stands) and
// merges with same-state buddies.
//
//vbi:hotpath
func (b *Buddy) Free(base Addr, order int) {
	fi := uint64(base) >> FrameShift
	var m uint8
	if order >= 0 && order <= MaxOrder && fi < b.nframes {
		m = b.metaAt(fi)
	}
	if m&metaLive == 0 || int(m&metaOrder) != order || m&metaFree != 0 {
		//vbi:allow hotalloc panic formatting on a caller bug, never reached by a correct simulation
		panic(fmt.Sprintf("phys: Free of non-allocated block %v order %d", base, order))
	}
	c := b.chunk(fi)
	oi := c.owner[fi&(chunkFrames-1)]
	c.meta[fi&(chunkFrames-1)] = 0
	b.allocOwn[oi]--
	b.freeBytes += OrderBytes(order)
	b.freeAndMerge(base, order, oi)
}

// freeAndMerge adds the free block (base, order) of owner index oi, first
// merging it with same-owner free buddies, and returns the block it ended
// up in.
//
//vbi:hotpath
func (b *Buddy) freeAndMerge(base Addr, order int, oi uint16) (Addr, int) {
	for order < MaxOrder {
		buddy := base ^ Addr(OrderBytes(order))
		bfi := uint64(buddy) >> FrameShift
		if bfi >= b.nframes {
			break
		}
		m := b.metaAt(bfi)
		if m&metaLive == 0 || m&metaFree == 0 || int(m&metaOrder) != order {
			break
		}
		if b.ownerAt(bfi) != oi {
			break
		}
		b.removeFree(buddy, order)
		if buddy < base {
			base = buddy
		}
		order++
	}
	b.addFree(base, order, oi)
	return base, order
}

// Unreserve releases vb's reservation: its remaining reserved-free blocks
// become unreserved free blocks, and blocks still allocated out of the
// reservation are retagged so that freeing them later returns them to the
// unreserved pool. One pass steps block by block (the blocks tile the
// pool) up from vb's lowest reserved frame and stops once the per-owner
// counts say no block of vb's is left; ascending order keeps the merging
// reproducible.
func (b *Buddy) Unreserve(vb Owner) {
	oi, ok := b.ownerIdx[vb]
	if !ok {
		return
	}
	left := b.allocOwn[oi]
	for _, n := range b.cntResOwn[oi] {
		left += n
	}
	for fi := b.resLow[oi]; left > 0; {
		m, base := b.metaAt(fi), Addr(fi<<FrameShift)
		order := int(m & metaOrder)
		if b.ownerAt(fi) == oi {
			left--
			if m&metaFree == 0 {
				b.chunk(fi).owner[fi&(chunkFrames-1)] = 0
				b.allocOwn[oi]--
				b.allocOwn[0]++
			} else {
				b.removeFree(base, order)
				base, order = b.freeAndMerge(base, order, 0)
			}
		}
		fi = uint64(base)>>FrameShift + 1<<order
	}
	b.resLow[oi] = ^uint64(0)
}

// LargestFreeOrder returns the order of the largest allocatable contiguous
// block available to vb at each priority level combined (i.e. the largest
// block Alloc(vb, order) would currently succeed for), or -1 when nothing
// is free.
func (b *Buddy) LargestFreeOrder(vb Owner) int {
	for o := MaxOrder; o >= 0; o-- {
		// Priorities 1 and 3 together can use any reserved block.
		if b.cntUnres[o] > 0 || b.cntRes[o] > 0 {
			return o
		}
	}
	return -1
}

// LargestUnreservedOrder returns the order of the largest unreserved free
// block (the contiguity Reserve can still satisfy), or -1 when none.
func (b *Buddy) LargestUnreservedOrder() int {
	for o := MaxOrder; o >= 0; o-- {
		if b.cntUnres[o] > 0 {
			return o
		}
	}
	return -1
}

// CheckInvariants verifies structural invariants and returns an error
// describing the first violation. It is exercised by the property tests.
func (b *Buddy) CheckInvariants() error {
	var free, reserved, total uint64
	var cntUnres, cntRes [MaxOrder + 1]int
	allocOwn := make([]int32, len(b.allocOwn))
	hasBlock := make([]bool, len(b.resLow))
	// The blocks must tile the pool: each starts where the previous ends.
	blocks := 0
	for fi := uint64(0); fi < b.capacity>>FrameShift; blocks++ {
		m, oi, base := b.metaAt(fi), b.ownerAt(fi), Addr(fi<<FrameShift)
		if m&metaLive == 0 {
			return fmt.Errorf("no block starts at %v, the end of the previous one", base)
		}
		o := int(m & metaOrder)
		size := OrderBytes(o)
		if uint64(base)%size != 0 {
			return fmt.Errorf("block %v order %d misaligned", base, o)
		}
		if oi != 0 && fi < b.resLow[oi] {
			return fmt.Errorf("block %v of owner index %d lies below its lowest reserved frame %d", base, oi, b.resLow[oi])
		}
		hasBlock[oi] = true
		total += size
		fi += 1 << o
		if m&metaFree == 0 {
			allocOwn[oi]++
			continue
		}
		bi := int(uint64(base) >> (FrameShift + o))
		free += size
		if oi == 0 {
			cntUnres[o]++
			if b.freeUnres[o][bi>>6]&(1<<(uint(bi)&63)) == 0 {
				return fmt.Errorf("free block %v order %d missing from unreserved bitmap", base, o)
			}
		} else {
			cntRes[o]++
			reserved += size
			if b.freeRes[o][bi>>6]&(1<<(uint(bi)&63)) == 0 {
				return fmt.Errorf("free block %v order %d missing from reserved bitmap", base, o)
			}
		}
	}
	// Any other live record would be a block overlapping one of those.
	live := 0
	for _, c := range b.chunks {
		if c == nil {
			continue
		}
		for _, m := range c.meta {
			if m&metaLive != 0 {
				live++
			}
		}
	}
	if live != blocks {
		return fmt.Errorf("%d live block records, but %d blocks tile the pool", live, blocks)
	}
	if free != b.freeBytes {
		return fmt.Errorf("freeBytes %d, blocks sum to %d", b.freeBytes, free)
	}
	if reserved != b.reservedBytes {
		return fmt.Errorf("reservedBytes %d, blocks sum to %d", b.reservedBytes, reserved)
	}
	if total != b.capacity {
		return fmt.Errorf("blocks cover %d bytes, capacity %d", total, b.capacity)
	}
	for o := 0; o <= MaxOrder; o++ {
		if cntUnres[o] != b.cntUnres[o] || cntRes[o] != b.cntRes[o] {
			return fmt.Errorf("order %d free counts (%d unres, %d res) disagree with blocks (%d, %d)",
				o, b.cntUnres[o], b.cntRes[o], cntUnres[o], cntRes[o])
		}
	}
	for oi, n := range allocOwn {
		if n != b.allocOwn[oi] {
			return fmt.Errorf("owner index %d has %d allocated blocks, count says %d", oi, n, b.allocOwn[oi])
		}
		if oi != 0 && hasBlock[oi] != (b.resLow[oi] != ^uint64(0)) {
			return fmt.Errorf("owner index %d: has blocks %v, but lowest reserved frame is %d", oi, hasBlock[oi], b.resLow[oi])
		}
	}
	return nil
}
