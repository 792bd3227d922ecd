package tlb

// PWC is a page-walk cache (Table 1: 32-entry, fully associative). It
// caches intermediate page-table nodes so a radix walk can skip already-
// translated upper levels: key = (level, address-prefix at that level),
// value = a handle for the next-level node. The PWC treats the handle as
// opaque; pagetable.Table stores its node index, so one PWC must only ever
// serve one table.
//
// The same structure serves as the nested (2D) page-walk cache that
// Virtual-2M is augmented with (§7.2, footnote 4), keyed by guest-physical
// prefixes.
type PWC struct {
	t *TLB
}

// NewPWC builds a fully associative page-walk cache with the given entry
// count.
func NewPWC(name string, entries int) *PWC {
	return &PWC{t: New(name, 1, entries)}
}

// key packs the walk level into the low bits of the prefix. Levels are
// small (< 8); prefixes are page-aligned, so the low 3 bits are free.
func pwcKey(level int, prefix uint64) uint64 {
	return prefix<<3 | uint64(level)&7
}

// Lookup returns the cached next-level node handle for the walk node
// (level, prefix).
func (p *PWC) Lookup(level int, prefix uint64) (uint64, bool) {
	return p.t.Lookup(pwcKey(level, prefix))
}

// Insert caches the walk node's handle.
func (p *PWC) Insert(level int, prefix, node uint64) {
	p.t.Insert(pwcKey(level, prefix), node)
}

// InvalidateAll empties the cache.
func (p *PWC) InvalidateAll() { p.t.InvalidateAll() }

// Stats returns the hit/miss counters.
func (p *PWC) Stats() Stats { return p.t.Stats }
