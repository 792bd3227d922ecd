package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"strings"
	"time"
)

// The fold charges each CPU-profile sample to one bucket:
//
//   - the innermost frame in a vbi/internal/<pkg> package that is one of
//     the layers; runtime and standard-library frames (map access,
//     mallocgc, growslice, hashing, JSON, syscalls) and the unlisted
//     helper packages under internal/ therefore go to the layer that
//     called them;
//   - "gc" for a stack with no layer frame that runs the garbage
//     collector's background work;
//   - "other" for everything else: the benchmark itself, the HTTP
//     client's connection goroutines, the scheduler.
//
// Every sample lands in exactly one bucket, so the buckets sum to the
// sampled time.

var layerSet = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// gcFramePrefixes mark the collector's own goroutines and phases.
var gcFramePrefixes = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.gcMarkTermination", "runtime.gcStart", "runtime.sweepone",
}

// foldStack returns the bucket of one sample; frames are innermost first.
func foldStack(frames []string) string {
	for _, f := range frames {
		if pkg, ok := internalPkg(f); ok && layerSet[pkg] {
			return pkg
		}
	}
	for _, f := range frames {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
	}
	return "other"
}

// internalPkg extracts <pkg> from a vbi/internal/<pkg>[/...].<func> frame.
func internalPkg(frame string) (string, bool) {
	const prefix = "vbi/internal/"
	if !strings.HasPrefix(frame, prefix) {
		return "", false
	}
	rest := frame[len(prefix):]
	end := strings.IndexAny(rest, "./")
	if end <= 0 {
		return "", false
	}
	return rest[:end], true
}

// foldResult is a folded profile.
type foldResult struct {
	buckets map[string]time.Duration
	// sampled is the sum of every sample's value.
	sampled time.Duration
	// header is the "Total samples" figure pprof prints (rounded).
	header  time.Duration
	samples int
}

var (
	totalRE = regexp.MustCompile(`Total samples = ([0-9.]+[a-zµ]+)`)
	valueRE = regexp.MustCompile(`^\s*([0-9.]+(?:ns|us|µs|ms|s))\s+(\S.*)$`)
)

// foldTraces parses `go tool pprof -traces` output. Each sample block is
// separated by a dashed line; its first line carries the sample value
// and the innermost frame, the following lines the callers.
func foldTraces(r io.Reader) (foldResult, error) {
	res := foldResult{buckets: map[string]time.Duration{}}
	var (
		frames []string
		value  time.Duration
		inside bool
	)
	flush := func() {
		if inside && len(frames) > 0 {
			res.buckets[foldStack(frames)] += value
			res.sampled += value
			res.samples++
		}
		frames, inside = frames[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := totalRE.FindStringSubmatch(line); m != nil {
			d, err := parseValue(m[1])
			if err != nil {
				return res, err
			}
			res.header = d
			continue
		}
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if m := valueRE.FindStringSubmatch(line); m != nil {
			flush()
			d, err := parseValue(m[1])
			if err != nil {
				return res, err
			}
			value, inside = d, true
			frames = append(frames, frameName(m[2]))
			continue
		}
		if inside {
			if f := strings.TrimSpace(line); f != "" && !strings.HasPrefix(f, "bytes:") {
				frames = append(frames, frameName(f))
			}
		}
	}
	flush()
	return res, sc.Err()
}

// frameName drops pprof's "(inline)" marker.
func frameName(s string) string {
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "(inline)"))
}

// parseValue reads a pprof duration such as "10ms", "1.23s" or "250µs".
func parseValue(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof value %q: %w", s, err)
	}
	return d, nil
}

// foldProfile runs `go tool pprof -traces` on a CPU profile and folds it.
func foldProfile(goBin, profile string) (foldResult, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return foldResult{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return foldTraces(&out)
}

// conserved reports whether the buckets sum to the sampled time and the
// sampled time agrees with pprof's own rounded total.
func (f foldResult) conserved() error {
	var sum time.Duration
	for _, l := range foldBuckets() {
		sum += f.buckets[l]
	}
	if sum != f.sampled {
		return fmt.Errorf("fold buckets sum to %v, samples to %v", sum, f.sampled)
	}
	if diff := f.sampled - f.header; diff > f.header/200+10*time.Millisecond || -diff > f.header/200+10*time.Millisecond {
		return fmt.Errorf("fold sampled %v, pprof total %v", f.sampled, f.header)
	}
	return nil
}

// foldBuckets is every bucket a sample can land in.
func foldBuckets() []string {
	return append(append([]string(nil), layers...), "gc", "other")
}
