package pagetable

import (
	"testing"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

func BenchmarkWalk4K(b *testing.B) {
	alloc := phys.NewFrameAllocator(64 << 20)
	t, _ := New(Page4K, alloc)
	frame, _ := alloc.Alloc()
	t.Map(0x7f00_0000_0000, frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Walk(0x7f00_0000_0000, nil)
	}
}

func BenchmarkWalk4KWithPWC(b *testing.B) {
	alloc := phys.NewFrameAllocator(64 << 20)
	t, _ := New(Page4K, alloc)
	pwc := tlb.NewPWC("PWC", 32)
	frame, _ := alloc.Alloc()
	t.Map(0x7f00_0000_0000, frame)
	t.Walk(0x7f00_0000_0000, pwc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Walk(0x7f00_0000_0000, pwc)
	}
}

func BenchmarkNestedWalk24(b *testing.B) {
	guestPhys := phys.NewFrameAllocator(64 << 20)
	hostPhys := phys.NewFrameAllocator(256 << 20)
	guest, _ := New(Page4K, guestPhys)
	host, _ := New(Page4K, hostPhys)
	n := &NestedTable{Guest: guest, Host: host}
	gva := uint64(0x7f00_0000_0000)
	guest.Map(gva, 0x80_0000)
	for _, node := range guest.nodes {
		host.Map(uint64(node), phys.Addr(node)+1<<30)
	}
	host.Map(0x80_0000, 0x4080_0000)
	n.Walk(gva, nil, nil) // sizes the walk's scratch buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Walk(gva, nil, nil)
	}
}

// BenchmarkMapLookupDense maps a contiguous 64 MB range into a fresh table
// and looks every page up again: the set-up path of a conventional
// machine, which warm-touches each structure's live pages.
func BenchmarkMapLookupDense(b *testing.B) {
	const base, size = uint64(0x10000000), uint64(64 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, _ := New(Page4K, phys.NewFrameAllocator(64<<20))
		for va := base; va < base+size; va += 4096 {
			if err := t.Map(va, phys.Addr(va)); err != nil {
				b.Fatal(err)
			}
		}
		for va := base; va < base+size; va += 4096 {
			if pa, ok := t.Lookup(va); !ok || pa != phys.Addr(va) {
				b.Fatalf("Lookup(%#x) = %v,%v", va, pa, ok)
			}
		}
	}
}
