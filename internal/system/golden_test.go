package system

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vbi/internal/trace"
	"vbi/internal/workloads"
)

// goldenRefs keeps the byte-identity matrix fast while still driving every
// probe path through evictions, writebacks and (for the hetero run) one
// migration epoch.
const goldenRefs = 20_000

// goldenMulticoreRefs is the per-core reference count of the quad-core
// entries: enough for shared-LLC evictions to back-invalidate peer lines.
const goldenMulticoreRefs = 5_000

// goldenResults runs every registered kind, one hetero machine and the
// Table 2 bundles wl3 and wl6 on Native, Virtual and VBI-Full quad-core
// machines, and returns the RunResult list in deterministic order.
func goldenResults(t *testing.T) []RunResult {
	t.Helper()
	prof := workloads.MustGet("mcf")
	var out []RunResult
	for _, kind := range Kinds() {
		m, err := New(Config{Kind: kind, Refs: goldenRefs}, prof)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out = append(out, res)
	}
	h, err := NewHetero(HeteroConfig{
		Mem: HeteroPCMDRAM, Policy: PolicyVBI, Refs: goldenRefs,
	}, prof)
	if err != nil {
		t.Fatalf("hetero: %v", err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatalf("hetero: %v", err)
	}
	out = append(out, res)
	for _, bundle := range []string{"wl3", "wl6"} {
		var profs []trace.Profile
		for _, name := range workloads.Bundles[bundle] {
			profs = append(profs, workloads.MustGet(name))
		}
		for _, kind := range []Kind{Native, Virtual, VBIFull} {
			m, err := NewMulticore(Config{Kind: kind, Refs: goldenMulticoreRefs}, profs)
			if err != nil {
				t.Fatalf("%s/%s: %v", bundle, kind, err)
			}
			rs, err := m.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", bundle, kind, err)
			}
			out = append(out, rs...)
		}
	}
	return out
}

// TestGoldenRunResults pins the simulated results of all ten registered
// kinds, a hetero migration run and six quad-core bundle runs
// byte-for-byte against the committed
// goldens. The goldens were generated on the pre-map-free probe paths, so
// this test IS the old-vs-new byte-identity proof for the hot-loop
// rewrite: any change to LRU tick order, eviction choice, writeback
// sequencing or latency accounting shows up as a diff here.
//
// Regenerate (only when the timing model intentionally changes, alongside
// a harness.Version review) with:
//
//	VBI_GOLDEN_REGEN=1 go test -run TestGoldenRunResults ./internal/system
func TestGoldenRunResults(t *testing.T) {
	if testing.Short() {
		t.Skip("byte-identity matrix runs seventeen machines; skipped in -short")
	}
	path := filepath.Join("testdata", "golden_runresults.json")
	got, err := json.MarshalIndent(goldenResults(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("VBI_GOLDEN_REGEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden regenerated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with VBI_GOLDEN_REGEN=1): %v", err)
	}
	if string(got) != string(want) {
		gotPath := filepath.Join(t.TempDir(), "got.json")
		_ = os.WriteFile(gotPath, got, 0o644)
		t.Fatalf("simulated results diverged from committed goldens (%s);\n"+
			"got written to %s\n"+
			"the probe-path rewrite must be byte-identical — do NOT regenerate unless the timing model itself changed",
			path, gotPath)
	}
}
