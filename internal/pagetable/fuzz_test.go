package pagetable

import (
	"math/rand"
	"testing"

	"vbi/internal/phys"
	"vbi/internal/tlb"
)

// FuzzTableOps decodes a byte string into a sequence of Map, Unmap,
// Lookup and Walk operations and applies it to the flat Table and to the
// map-based reference model side by side. Both forms must agree on every
// result: walk accesses, translations, faults, the 2D walk breakdown and
// the hit/miss counts of every page-walk cache.
//
// data[0] selects the configuration:
//
//	bit 0    geometry: Page4K or Page2M
//	bit 1    a PWC on native walks / the host dimension
//	bit 2    nested: a guest table over a host table, 2D walks
//	bit 3    a guest-dimension PWC (nested only)
//	bits 4-5 PWC size: 2, 4, 8 or 32 entries
//	bit 6    a 24-frame node allocator, so Map runs out of memory
//
// The rest is read three bytes per operation: an opcode byte, an address
// byte (see fuzzVA) and an argument byte that picks frames and offsets.
func FuzzTableOps(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add([]byte{})
	for _, mode := range []byte{0x00, 0x01, 0x02, 0x03, 0x12, 0x40, 0x41, 0x04, 0x06, 0x0e, 0x0f, 0x2e, 0x4e} {
		ops := make([]byte, 1+3*200)
		rng.Read(ops)
		ops[0] = mode
		f.Add(ops)
	}
	f.Fuzz(checkTableOps)
}

// fuzzFrames is the frame budget of the node allocators, by bit 6 of the
// mode byte.
var fuzzFrames = [2]uint64{64 << 20, 24 * phys.FrameSize}

// fuzzIndexes are the radix indexes a decoded address uses at each level:
// both ends of a node and two points between.
var fuzzIndexes = [4]uint64{0, 1, 256, 511}

// fuzzVA spreads two bits of a per level over geo, so that decoded
// addresses often share nodes and often hit mapped pages.
func fuzzVA(geo Geometry, a byte) uint64 {
	var va uint64
	for k := 0; k < geo.Levels; k++ {
		idx := fuzzIndexes[a>>(2*k)&3]
		va |= idx << (geo.PageShift + uint(indexBits*(geo.Levels-1-k)))
	}
	return va
}

// fuzzOffset derives an in-page offset from x.
func fuzzOffset(geo Geometry, x byte) uint64 {
	return uint64(x) * 0x9e37 & (geo.PageSize() - 1)
}

// fuzzFrame derives one of 16 page-aligned frames from x. With 4 KB pages
// they overlap the node allocator's frames, so a mapped frame can equal a
// node address.
func fuzzFrame(geo Geometry, x byte) phys.Addr {
	return phys.Addr(uint64(x&15) << geo.PageShift)
}

// tablePair is one flat table and its reference model, each fed by its own
// allocator; the allocators are deterministic, so both forms see the same
// node addresses.
type tablePair struct {
	flat *Table
	ref  *refTable
	// mapped is the oracle for MappedPages.
	mapped map[uint64]bool
}

func newTablePair(t *testing.T, geo Geometry, frames uint64) *tablePair {
	t.Helper()
	flat, err := New(geo, phys.NewFrameAllocator(frames))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefTable(geo, phys.NewFrameAllocator(frames))
	if err != nil {
		t.Fatal(err)
	}
	return &tablePair{flat: flat, ref: ref, mapped: map[uint64]bool{}}
}

func (p *tablePair) mapPage(t *testing.T, va uint64, frame phys.Addr) {
	t.Helper()
	errF, errR := p.flat.Map(va, frame), p.ref.Map(va, frame)
	if (errF == nil) != (errR == nil) {
		t.Fatalf("Map(%#x, %v): flat err %v, reference err %v", va, frame, errF, errR)
	}
	if errF == nil {
		p.mapped[va] = true
	}
}

func (p *tablePair) unmap(t *testing.T, va uint64) {
	t.Helper()
	okF, okR := p.flat.Unmap(va), p.ref.Unmap(va)
	if okF != okR {
		t.Fatalf("Unmap(%#x): flat %v, reference %v", va, okF, okR)
	}
	delete(p.mapped, va)
}

func (p *tablePair) lookup(t *testing.T, va uint64) {
	t.Helper()
	paF, okF := p.flat.Lookup(va)
	paR, okR := p.ref.Lookup(va)
	if paF != paR || okF != okR {
		t.Fatalf("Lookup(%#x): flat %v,%v reference %v,%v", va, paF, okF, paR, okR)
	}
}

func (p *tablePair) check(t *testing.T) {
	t.Helper()
	if got, want := p.flat.MappedPages(), len(p.mapped); got != want {
		t.Fatalf("MappedPages = %d, want %d", got, want)
	}
	if p.flat.NodeBytes() != uint64(len(p.ref.nodes))*phys.FrameSize {
		t.Fatalf("NodeBytes = %d, reference has %d nodes", p.flat.NodeBytes(), len(p.ref.nodes))
	}
}

// pwcPair is one PWC per form; nil when the mode has none.
type pwcPair struct{ flat, ref *tlb.PWC }

func newPWCPair(on bool, name string, entries int) pwcPair {
	if !on {
		return pwcPair{}
	}
	return pwcPair{tlb.NewPWC(name, entries), tlb.NewPWC(name, entries)}
}

func (p pwcPair) check(t *testing.T, op int) {
	t.Helper()
	if p.flat != nil && p.flat.Stats() != p.ref.Stats() {
		t.Fatalf("op %d: PWC stats: flat %+v, reference %+v", op, p.flat.Stats(), p.ref.Stats())
	}
}

func sameWalk(t *testing.T, op int, va uint64, flat, ref WalkResult) {
	t.Helper()
	if flat.Phys != ref.Phys || flat.OK != ref.OK || len(flat.Accesses) != len(ref.Accesses) {
		t.Fatalf("op %d: walk %#x: flat %v,%v,%d accesses; reference %v,%v,%d accesses", op, va,
			flat.Phys, flat.OK, len(flat.Accesses), ref.Phys, ref.OK, len(ref.Accesses))
	}
	for i := range flat.Accesses {
		if flat.Accesses[i] != ref.Accesses[i] {
			t.Fatalf("op %d: walk %#x: access %d: flat %v, reference %v", op, va, i, flat.Accesses[i], ref.Accesses[i])
		}
	}
}

func checkTableOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	mode := data[0]
	geo := Page4K
	if mode&1 != 0 {
		geo = Page2M
	}
	entries := [4]int{2, 4, 8, 32}[mode>>4&3]
	frames := fuzzFrames[mode>>6&1]
	pwc := newPWCPair(mode&2 != 0, "PWC", entries)
	ops := data[1:]
	if mode&4 == 0 {
		checkNativeOps(t, geo, frames, pwc, ops)
		return
	}
	checkNestedOps(t, geo, frames, pwc, newPWCPair(mode&8 != 0, "gPWC", entries), ops)
}

func checkNativeOps(t *testing.T, geo Geometry, frames uint64, pwc pwcPair, ops []byte) {
	p := newTablePair(t, geo, frames)
	for i := 0; i+3 <= len(ops); i += 3 {
		op, va, arg := ops[i], fuzzVA(geo, ops[i+1]), ops[i+2]
		switch op & 7 {
		case 0, 1, 2:
			p.mapPage(t, va, fuzzFrame(geo, arg))
		case 3:
			p.unmap(t, va)
		case 4:
			p.lookup(t, va+fuzzOffset(geo, arg))
		default:
			va += fuzzOffset(geo, arg)
			sameWalk(t, i/3, va, p.flat.Walk(va, pwc.flat), p.ref.Walk(va, pwc.ref))
			pwc.check(t, i/3)
		}
	}
	p.check(t)
}

func checkNestedOps(t *testing.T, geo Geometry, frames uint64, hostPWC, guestPWC pwcPair, ops []byte) {
	guest := newTablePair(t, geo, frames)
	host := newTablePair(t, geo, 64<<20)
	nested := &NestedTable{Guest: guest.flat, Host: host.flat}
	for i := 0; i+3 <= len(ops); i += 3 {
		op, va, arg := ops[i], fuzzVA(geo, ops[i+1]), ops[i+2]
		// The host dimension maps the gPAs fuzzFrame hands out as guest
		// data frames; with 4 KB pages these hold guest nodes too.
		gpa := uint64(fuzzFrame(geo, arg))
		switch op & 15 {
		case 0, 1, 2:
			guest.mapPage(t, va, fuzzFrame(geo, arg))
		case 3:
			guest.unmap(t, va)
		case 4, 5:
			host.mapPage(t, gpa, fuzzFrame(geo, op>>4))
		case 6:
			// Back every guest node, as a hypervisor populating the
			// EPT for guest page-table pages would.
			for _, node := range guest.flat.nodes {
				host.mapPage(t, uint64(node)&^(geo.PageSize()-1), fuzzFrame(geo, arg))
			}
		case 7:
			host.unmap(t, gpa)
		case 8:
			guest.lookup(t, va+fuzzOffset(geo, arg))
			host.lookup(t, gpa+fuzzOffset(geo, arg))
		default:
			va += fuzzOffset(geo, arg)
			flat := nested.Walk(va, hostPWC.flat, guestPWC.flat)
			ref := refNestedWalk(guest.ref, host.ref, va, hostPWC.ref, guestPWC.ref)
			sameWalk(t, i/3, va, flat.WalkResult, ref.WalkResult)
			if flat.GuestAccesses != ref.GuestAccesses || flat.HostAccesses != ref.HostAccesses {
				t.Fatalf("op %d: 2D walk %#x: flat %d guest + %d host, reference %d + %d", i/3, va,
					flat.GuestAccesses, flat.HostAccesses, ref.GuestAccesses, ref.HostAccesses)
			}
			hostPWC.check(t, i/3)
			guestPWC.check(t, i/3)
		}
	}
	guest.check(t)
	host.check(t)
}
