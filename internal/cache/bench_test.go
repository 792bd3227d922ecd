package cache

import "testing"

func BenchmarkCacheHit(b *testing.B) {
	c := New("L1", 32<<10, 8)
	c.Insert(0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(0, false)
	}
}

func BenchmarkHierarchyL1Hit(b *testing.B) {
	h := NewHierarchy(New("L1", 32<<10, 8), New("L2", 256<<10, 8), New("LLC", 8<<20, 16), DefaultLatencies)
	h.Fill(0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, false)
	}
}

func BenchmarkHierarchyMissFill(b *testing.B) {
	h := NewHierarchy(New("L1", 32<<10, 8), New("L2", 256<<10, 8), New("LLC", 8<<20, 16), DefaultLatencies)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i) * 64
		h.Access(line, false)
		h.Fill(line, false)
	}
}

func BenchmarkCacheInsertEvict(b *testing.B) {
	c := New("L1", 32<<10, 8)
	// Working set twice the capacity: every insert past warm-up evicts.
	lines := 2 * (32 << 10 / 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i%lines)*64, i%2 == 0)
	}
}

func BenchmarkCacheMarkDirty(b *testing.B) {
	c := New("L1", 32<<10, 8)
	c.Insert(0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.MarkDirty(0)
	}
}

// BenchmarkHierarchySharedEvict drives four cores' views over one small
// shared LLC. Each core reads and writes random lines of its own region;
// the four regions together are twice the LLC's capacity, so most fills
// evict an LLC line that another core still holds in its L1/L2 and must
// back-invalidate, and many of those victims are dirty.
func BenchmarkHierarchySharedEvict(b *testing.B) {
	const cores = 4
	const linesPerCore = 512 // 32 KB: the size of one L2 below
	root := NewHierarchy(New("L1", 4<<10, 8), New("L2", 32<<10, 8), New("LLC", 64<<10, 16), DefaultLatencies)
	views := []*Hierarchy{root}
	for c := 1; c < cores; c++ {
		views = append(views, root.ShareLLC(New("L1", 4<<10, 8), New("L2", 32<<10, 8)))
	}
	x := uint64(88172645463325252)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c := i % cores
		line := uint64(c*linesPerCore+int(x%linesPerCore)) * LineSize
		write := x&(1<<32) != 0
		if views[c].Access(line, write).MissedLLC {
			views[c].Fill(line, write)
		}
	}
}
