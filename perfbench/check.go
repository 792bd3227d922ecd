package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"vbi/internal/harness"
	"vbi/internal/system"
)

// digestStore holds the pinned output digests: harness.Version →
// workload → input set → one SHA-256 per job, in job-list order. A
// version bump that changes result bytes has no entry until the store is
// re-pinned with -pin, and the benchmark then falls back to checking that
// repeated runs agree.
type digestStore map[string]map[string]map[string][]string

//go:embed digests.json
var pinnedDigests []byte

func loadDigests() (digestStore, error) {
	var s digestStore
	if err := json.Unmarshal(pinnedDigests, &s); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return s, nil
}

// pinned returns the stored digests of one workload's input set, or nil.
func (s digestStore) pinned(workload string, set int) []string {
	return s[harness.Version][workload][strconv.Itoa(set)]
}

// digest is the SHA-256 of a job's canonical RunResult JSON (Extra
// marshals with sorted keys).
func digest(rs []system.RunResult) (string, error) {
	b, err := json.Marshal(rs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// pin runs every input set of every workload once and writes the store
// for the current harness.Version to path, keeping other versions' entries.
func pin(path string) error {
	store, err := loadDigests()
	if err != nil {
		return err
	}
	byWorkload := map[string]map[string][]string{}
	for _, w := range allWorkloads {
		sets := map[string][]string{}
		for set := 0; set < inputSets; set++ {
			ds, err := referenceDigests(w, set)
			if err != nil {
				return fmt.Errorf("%s set %d: %w", w.name, set, err)
			}
			sets[strconv.Itoa(set)] = ds
			fmt.Fprintf(os.Stderr, "pinned %s set %d: %d jobs\n", w.name, set, len(ds))
		}
		byWorkload[w.name] = sets
	}
	store[harness.Version] = byWorkload
	b, err := json.MarshalIndent(store, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// referenceDigests runs an input set's jobs once, serially and locally.
func referenceDigests(w workload, set int) ([]string, error) {
	var out []string
	if w.sim != nil {
		for _, j := range w.sim(set, w.refs) {
			m, err := j.build()
			if err != nil {
				return nil, err
			}
			rs, err := m.run()
			if err != nil {
				return nil, err
			}
			d, err := digest(rs)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	}
	res, err := (&harness.Runner{Workers: 1}).Run(bgCtx, w.fleet(set, w.refs))
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		d, err := digest(r.Results)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
