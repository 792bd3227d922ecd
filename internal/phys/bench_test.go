package phys

import "testing"

func BenchmarkBuddyAllocFree(b *testing.B) {
	bd := NewBuddy(1 << 30)
	owner := vb(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, ok := bd.Alloc(owner, 0)
		if !ok {
			b.Fatal("exhausted")
		}
		bd.Free(a, 0)
	}
}

func BenchmarkBuddyAllocAt(b *testing.B) {
	bd := NewBuddy(1 << 30)
	owner := vb(1)
	base, _ := bd.Reserve(owner, 18) // 1 GB reservation
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := base + Addr((i%1000)*FrameSize)
		if !bd.AllocAt(owner, at, 0) {
			b.Fatal("AllocAt failed")
		}
		bd.Free(at, 0)
	}
}

func BenchmarkFrameAllocator(b *testing.B) {
	f := NewFrameAllocator(1 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, ok := f.Alloc()
		if !ok {
			b.Fatal("exhausted")
		}
		f.Free(a)
	}
}

// BenchmarkNewBuddyPrefill measures a direct-mapped VB's set-up in a
// 16 GB pool: the allocator is built, a 128 MB reservation is carved out,
// and every 4 KB frame in it is materialized with AllocAt.
func BenchmarkNewBuddyPrefill(b *testing.B) {
	owner := vb(1)
	const order = 15 // 128 MB
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd := NewBuddy(16 << 30)
		base, ok := bd.Reserve(owner, order)
		if !ok {
			b.Fatal("reserve failed")
		}
		for f := Addr(0); f < Addr(OrderBytes(order)); f += FrameSize {
			if !bd.AllocAt(owner, base+f, 0) {
				b.Fatal("AllocAt failed")
			}
		}
	}
}

// BenchmarkUnreserve measures Unreserve of a 128 MB reservation, eight
// chunks of records, with a live allocation in every 16th frame, so that
// the retagging scan covers every chunk. Only Unreserve is timed.
func BenchmarkUnreserve(b *testing.B) {
	owner := vb(1)
	const order = 15 // 128 MB
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bd := NewBuddy(1 << 30)
		base, ok := bd.Reserve(owner, order)
		if !ok {
			b.Fatal("reserve failed")
		}
		for f := Addr(15 * FrameSize); f < Addr(OrderBytes(order)); f += 16 * FrameSize {
			if !bd.AllocAt(owner, base+f, 0) {
				b.Fatal("AllocAt failed")
			}
		}
		b.StartTimer()
		bd.Unreserve(owner)
	}
}

// BenchmarkUnreserveAbovePrefilled measures Unreserve on a pool laid out
// the way direct-mapped VBs leave it: in a 16 GB pool, eight VBs each
// reserve 128 MB and fill it with 4 KB AllocAt, as Prefill does, and the
// last VB's reservation is released. Its reservation lies above the other
// seven's 229,376 allocated frames. Only Unreserve is timed.
func BenchmarkUnreserveAbovePrefilled(b *testing.B) {
	const order, vbs = 15, 8 // 128 MB per VB
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bd := NewBuddy(16 << 30)
		for v := uint64(1); v <= vbs; v++ {
			base, ok := bd.Reserve(vb(v), order)
			if !ok {
				b.Fatal("reserve failed")
			}
			for f := Addr(0); f < Addr(OrderBytes(order)); f += FrameSize {
				if !bd.AllocAt(vb(v), base+f, 0) {
					b.Fatal("AllocAt failed")
				}
			}
		}
		b.StartTimer()
		bd.Unreserve(vb(vbs))
	}
}
