package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profiler captures one CPU profile of a traced pass.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(dir, name string) (*profiler, error) {
	path := filepath.Join(dir, name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return &profiler{path: path, f: f}, nil
}

// stop ends the profile and folds it into per-layer CPU shares with the
// toolchain's offline pprof.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	defer os.Remove(p.path)
	out, err := exec.Command("go", "tool", "pprof", "-raw", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw: %w", err)
	}
	return fold(strings.NewReader(string(out)))
}

// fold reads `go tool pprof -raw` output and attributes each sample's CPU
// time to the innermost sturgeon frame of its stack: the
// sturgeon/internal package it belongs to, or "bench" for the
// benchmark's own (package main) frames. Stacks without one go to
// "nethttp" when they pass through the net stack, to "runtime.gc" when
// they are garbage-collector work, and to "other" otherwise. Packages
// outside cpuLayers also land in "other". The returned shares sum to 1
// over cpuLayers; an empty profile is an error.
func fold(r io.Reader) (map[string]float64, error) {
	type sample struct {
		weight float64
		locs   []int
	}
	var (
		samples []sample
		funcs   = map[int][]string{} // location id -> frames, innermost first
		section string
		lastLoc = -1
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		trim := strings.TrimSpace(line)
		switch {
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
			continue
		case trim == "":
			continue
		}
		switch section {
		case "Samples:":
			head, ids, ok := strings.Cut(trim, ":")
			if !ok {
				continue // the column header
			}
			vals := strings.Fields(head)
			w, err := strconv.ParseFloat(vals[len(vals)-1], 64)
			if err != nil {
				continue // a label line
			}
			var s sample
			s.weight = w
			for _, f := range strings.Fields(ids) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("fold: bad location id %q", f)
				}
				s.locs = append(s.locs, id)
			}
			samples = append(samples, s)
		case "Locations":
			fields := strings.Fields(trim)
			if strings.HasSuffix(fields[0], ":") {
				id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":"))
				if err != nil {
					return nil, fmt.Errorf("fold: bad location line %q", trim)
				}
				lastLoc = id
				// id: addr M=n func file:line s=n
				if len(fields) >= 4 {
					funcs[id] = append(funcs[id], fields[3])
				}
				continue
			}
			if lastLoc >= 0 {
				funcs[lastLoc] = append(funcs[lastLoc], fields[0]) // inlined caller
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	shares := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		var frames []string
		for _, id := range s.locs {
			frames = append(frames, funcs[id]...)
		}
		b := bucket(frames)
		if !known[b] {
			b = "other"
		}
		shares[b] += s.weight
		total += s.weight
	}
	if total == 0 {
		return nil, fmt.Errorf("fold: profile has no samples")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = shares[l] / total
	}
	return out, nil
}

// bucket names the layer of one stack, frames innermost first.
func bucket(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "sturgeon/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/") || strings.HasPrefix(f, "net.") {
			return "nethttp"
		}
	}
	for _, f := range frames {
		for _, p := range gcFrames {
			if strings.HasPrefix(f, p) {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// gcFrames prefix the runtime functions that only garbage-collector work
// runs under.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.GC",
}
