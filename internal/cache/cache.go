// Package cache models set-associative write-back, write-allocate caches and
// the three-level on-chip hierarchy of Table 1. The caches are address-type
// agnostic: they index by 64-byte line address, which may be a virtual,
// VBI, intermediate or physical address depending on the system being
// simulated (conventional systems index by physical address after
// translation, while VBI/VIVT/Enigma systems index caches purely virtually,
// §3.5).
package cache

import (
	"fmt"
	"slices"
)

// LineShift is log2 of the cache line size (64 B).
const LineShift = 6

// LineSize is the cache line size in bytes.
const LineSize = 1 << LineShift

// LineOf returns the line address (low 6 bits cleared) containing a.
func LineOf(a uint64) uint64 { return a &^ (LineSize - 1) }

type way struct {
	tag   uint64 // full line address
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Stats holds per-cache event counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// Cache is one set-associative write-back cache level. The probe path is
// map-free: a line's set is a direct index into the flattened lines array
// and the tag match is a linear scan over the set's ways (ways <= 16, so
// the scan stays within one or two cache lines of host memory and beats a
// hash probe). Probes never allocate.
type Cache struct {
	Name string
	// Stats accumulates hit/miss/eviction counts.
	Stats Stats

	sets     int
	ways     int
	setMask  uint64
	lines    []way // sets*ways, row-major by set
	tick     uint64
	occupied int // valid lines, maintained by Insert/Invalidate
}

// New builds a cache of sizeBytes capacity and the given associativity.
// sizeBytes must be a multiple of ways*LineSize and the set count must be a
// power of two; New panics otherwise (configuration error).
func New(name string, sizeBytes, ways int) *Cache {
	if ways <= 0 || sizeBytes%(ways*LineSize) != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d ways=%d", name, sizeBytes, ways))
	}
	sets := sizeBytes / (ways * LineSize)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	return &Cache{
		Name:    name,
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		lines:   make([]way, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) setOf(line uint64) int {
	return int((line >> LineShift) & c.setMask)
}

// probe returns the index of the line's way within the flattened array, or
// -1. It is the one tag-match loop every probe shares and never allocates.
//
//vbi:hotpath
func (c *Cache) probe(line uint64) int {
	base := c.setOf(line) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == line {
			return i
		}
	}
	return -1
}

// Lookup probes for the line, updating LRU state and (for writes) the dirty
// bit. It reports whether the line was present and does not allocate.
//
//vbi:hotpath
func (c *Cache) Lookup(line uint64, write bool) bool {
	if i := c.probe(line); i >= 0 {
		c.tick++
		c.lines[i].used = c.tick
		if write {
			c.lines[i].dirty = true
		}
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// MarkDirty updates LRU state and sets the dirty bit exactly like a write
// hit — same tick advance, same used stamp — but never touches Stats. It
// reports whether the line was present. The hierarchy uses it for internal
// bookkeeping probes (recording dirty state at the LLC on write fills and
// writeback spills) that are not demand accesses and must not inflate the
// demand hit/miss counters.
//
//vbi:hotpath
func (c *Cache) MarkDirty(line uint64) bool {
	if i := c.probe(line); i >= 0 {
		c.tick++
		c.lines[i].used = c.tick
		c.lines[i].dirty = true
		return true
	}
	return false
}

// Contains probes without perturbing LRU or statistics (for tests and
// back-invalidation checks).
func (c *Cache) Contains(line uint64) bool {
	return c.probe(line) >= 0
}

// IsDirty reports whether the line is present and dirty, without
// perturbing LRU or statistics.
func (c *Cache) IsDirty(line uint64) bool {
	i := c.probe(line)
	return i >= 0 && c.lines[i].dirty
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Line  uint64
	Dirty bool
	Valid bool
}

// Insert fills the line into its set, evicting the LRU way if the set is
// full. The returned victim is Valid when a live line was displaced.
// Insert never allocates.
//
//vbi:hotpath
func (c *Cache) Insert(line uint64, dirty bool) Victim {
	set := c.setOf(line)
	base := set * c.ways
	victimIdx := base
	var oldest uint64 = ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == line {
			// Already present (e.g. racing fill): just merge dirty state.
			c.tick++
			c.lines[i].used = c.tick
			c.lines[i].dirty = c.lines[i].dirty || dirty
			return Victim{}
		}
		if !c.lines[i].valid {
			if oldest != 0 {
				victimIdx = i
				oldest = 0
			}
			continue
		}
		if c.lines[i].used < oldest {
			oldest = c.lines[i].used
			victimIdx = i
		}
	}
	var v Victim
	w := &c.lines[victimIdx]
	if w.valid {
		v = Victim{Line: w.tag, Dirty: w.dirty, Valid: true}
		c.occupied--
		c.Stats.Evictions++
		if w.dirty {
			c.Stats.Writebacks++
		}
	}
	c.tick++
	*w = way{tag: line, valid: true, dirty: dirty, used: c.tick}
	c.occupied++
	return v
}

// Invalidate drops the line if present, returning whether it was dirty.
func (c *Cache) Invalidate(line uint64) (wasPresent, wasDirty bool) {
	i := c.probe(line)
	if i < 0 {
		return false, false
	}
	wasDirty = c.lines[i].dirty
	c.lines[i] = way{}
	c.occupied--
	return true, wasDirty
}

// InvalidateAll empties the cache in place: the flat array is cleared
// without reallocating, so repeated invalidate/refill cycles are
// allocation-free. The LRU clock keeps running (monotonic ticks are what
// make eviction order reproducible).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = way{}
	}
	c.occupied = 0
}

// InvalidateIf drops every line for which pred returns true (used for the
// lazy cache cleanup after disable_vb, §4.2.4) and returns the count.
// This is the cold path: it collects and sorts the live line addresses
// before calling pred or mutating, because an array-order walk would visit
// lines in (set, way) placement order — a function of eviction history —
// and the invalidation sequence (and a stateful pred's view) must depend
// only on cache contents.
func (c *Cache) InvalidateIf(pred func(line uint64) bool) int {
	lines := make([]uint64, 0, c.occupied)
	for i := range c.lines {
		if c.lines[i].valid {
			lines = append(lines, c.lines[i].tag)
		}
	}
	slices.Sort(lines)
	doomed := 0
	for _, line := range lines {
		if pred(line) {
			c.Invalidate(line)
			doomed++
		}
	}
	return doomed
}

// OccupiedLines returns the number of valid lines (for tests).
func (c *Cache) OccupiedLines() int { return c.occupied }
