package phys

import (
	"math/bits"
	"math/rand"
	"testing"
)

// FuzzBuddyOps decodes a byte string into a sequence of Alloc, AllocAt,
// Reserve, Free and Unreserve calls and applies it to the chunked Buddy and
// to the map-backed reference model side by side. Both must agree on every
// return value, and after every step on FreeBytes, ReservedBytes,
// LargestFreeOrder for every owner and LargestUnreservedOrder; the chunked
// form must also pass CheckInvariants.
//
// data[0] selects the configuration:
//
//	bits 0-2 pool size (see fuzzPools), some spanning several chunks
//	bits 3-5 the number of owners, 1 to 6 (owner 0, "unreserved", is
//	         always also used)
//
// The rest is read three bytes per operation: an opcode byte whose high
// bits pick the owner, and two argument bytes that pick orders, bases and
// live blocks.
func FuzzBuddyOps(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add([]byte{})
	for _, mode := range []byte{0x00, 0x09, 0x12, 0x1b, 0x23, 0x2c, 0x35, 0x3e, 0x0b, 0x2b} {
		ops := make([]byte, 1+3*200)
		rng.Read(ops)
		ops[0] = mode
		f.Add(ops)
	}
	// Reserve across chunks, allocate out of it, Unreserve, then Free:
	// each Free must rejoin the unreserved pool.
	f.Add([]byte{0x0e, // a 9192-frame pool, owners 1 and 2
		0x0a, 9, 0, // owner 1 reserves an order-9 block
		0x0a, 13, 0, // owner 1 reserves order 13: frames 0-8191, two chunks
		0x09, 0x88, 40, // AllocAt frame 40 of the order-13 reservation
		0x09, 0x00, 200, // AllocAt frame 7181, in the second chunk
		0x08, 0, 0, // Alloc out of the reservation
		0x0c, 0, 0, // Unreserve owner 1
		0x03, 0, 0, // Free the live blocks
		0x03, 0, 0,
		0x03, 0, 0,
	})
	f.Fuzz(checkBuddyOps)
}

// fuzzPools are the pool sizes in frames: tiny, non-power-of-two, one
// chunk, and pools of two and three chunks with a partial last chunk.
var fuzzPools = [8]uint64{1, 16, 37, 100, 512, chunkFrames, 2*chunkFrames + 1000, 3 * chunkFrames}

// buddyPair is one chunked Buddy and its reference model, plus the live
// allocations both have handed out, in allocation order.
type buddyPair struct {
	b      *Buddy
	ref    *refBuddy
	owners []Owner
	live   []blockKey
	// resv holds every base a Reserve returned, for AllocAt targets.
	resv []Addr
}

func (p *buddyPair) check(t *testing.T, step int) {
	t.Helper()
	if p.b.FreeBytes() != p.ref.FreeBytes() || p.b.ReservedBytes() != p.ref.ReservedBytes() {
		t.Fatalf("step %d: free/reserved bytes %d/%d, reference %d/%d", step,
			p.b.FreeBytes(), p.b.ReservedBytes(), p.ref.FreeBytes(), p.ref.ReservedBytes())
	}
	for _, o := range p.owners {
		if got, want := p.b.LargestFreeOrder(o), p.ref.LargestFreeOrder(o); got != want {
			t.Fatalf("step %d: LargestFreeOrder(%v) = %d, reference %d", step, o, got, want)
		}
	}
	if got, want := p.b.LargestUnreservedOrder(), p.ref.LargestUnreservedOrder(); got != want {
		t.Fatalf("step %d: LargestUnreservedOrder = %d, reference %d", step, got, want)
	}
	if err := p.b.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// panics reports whether f panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func checkBuddyOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	mode := data[0]
	capacity := fuzzPools[mode&7] * FrameSize
	p := &buddyPair{b: NewBuddy(capacity), ref: newRefBuddy(capacity), owners: []Owner{0}}
	for i := 1; i <= 1+int(mode>>3&7)%6; i++ {
		p.owners = append(p.owners, vb(uint64(i)))
	}
	if p.b.Capacity() != p.ref.Capacity() {
		t.Fatalf("Capacity = %d, reference %d", p.b.Capacity(), p.ref.Capacity())
	}
	p.check(t, -1)
	// Orders range one past the pool's largest block, so that requests
	// too large to succeed are exercised too.
	orders := bits.Len64(capacity>>FrameShift) + 1
	nframes := capacity >> FrameShift
	ops := data[1:]
	for i := 0; i+3 <= len(ops); i += 3 {
		step, op, a1, a2 := i/3, ops[i], ops[i+1], ops[i+2]
		owner := p.owners[int(op>>3)%len(p.owners)]
		order := int(a1&0x7f) % orders
		switch op & 7 {
		case 0, 5:
			got, okB := p.b.Alloc(owner, order)
			want, okR := p.ref.Alloc(owner, order)
			if got != want || okB != okR {
				t.Fatalf("step %d: Alloc(%v, %d) = %v,%v, reference %v,%v", step, owner, order, got, okB, want, okR)
			}
			if okB {
				p.live = append(p.live, blockKey{got, order})
			}
		case 1, 6:
			// a1's high bit aims inside a reservation; otherwise a2
			// spreads the target over the pool. Misaligned targets fail
			// in both forms.
			order = int(a1&7) % orders
			var at Addr
			if a1&0x80 != 0 && len(p.resv) > 0 {
				at = p.resv[int(a1>>3&15)%len(p.resv)] + Addr(uint64(a2)<<FrameShift)
			} else {
				at = Addr(uint64(a2) * nframes / 256 << FrameShift)
			}
			if a1&0x78 != 0x78 {
				at &^= Addr(OrderBytes(order) - 1)
			}
			okB, okR := p.b.AllocAt(owner, at, order), p.ref.AllocAt(owner, at, order)
			if okB != okR {
				t.Fatalf("step %d: AllocAt(%v, %v, %d) = %v, reference %v", step, owner, at, order, okB, okR)
			}
			if okB {
				p.live = append(p.live, blockKey{at, order})
			}
		case 2:
			got, okB := p.b.Reserve(owner, order)
			want, okR := p.ref.Reserve(owner, order)
			if got != want || okB != okR {
				t.Fatalf("step %d: Reserve(%v, %d) = %v,%v, reference %v,%v", step, owner, order, got, okB, want, okR)
			}
			if okB {
				p.resv = append(p.resv, got)
			}
		case 3:
			if len(p.live) == 0 {
				break
			}
			k := int(a1) % len(p.live)
			blk := p.live[k]
			p.live = append(p.live[:k], p.live[k+1:]...)
			p.b.Free(blk.base, blk.order)
			p.ref.Free(blk.base, blk.order)
		case 4:
			p.b.Unreserve(owner)
			p.ref.Unreserve(owner)
		case 7:
			// Free of a block that is not live must panic in both forms
			// and leave both unchanged.
			blk := blockKey{Addr(uint64(a2) * nframes / 256 << FrameShift), order}
			isLive := false
			for _, l := range p.live {
				isLive = isLive || l == blk
			}
			if isLive {
				break
			}
			pB := panics(func() { p.b.Free(blk.base, blk.order) })
			pR := panics(func() { p.ref.Free(blk.base, blk.order) })
			if !pB || !pR {
				t.Fatalf("step %d: Free of dead block %v order %d: panicked %v, reference %v", step, blk.base, blk.order, pB, pR)
			}
		}
		p.check(t, step)
	}
	// Drain: free every live block and release every reservation; the
	// pool must return to its initial shape.
	for _, blk := range p.live {
		p.b.Free(blk.base, blk.order)
		p.ref.Free(blk.base, blk.order)
	}
	for _, o := range p.owners {
		p.b.Unreserve(o)
		p.ref.Unreserve(o)
	}
	p.check(t, len(ops)/3)
	if p.b.FreeBytes() != p.b.Capacity() || p.b.ReservedBytes() != 0 {
		t.Fatalf("drained pool: free %d of %d, reserved %d", p.b.FreeBytes(), p.b.Capacity(), p.b.ReservedBytes())
	}
}
