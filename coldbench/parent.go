package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// world is one of an invocation's worlds with the digest its output must
// have.
type world struct {
	seed   int64
	digest string
	// source says where digest came from: "pinned", "serial reference" or
	// "given".
	source string
}

// loadPins decodes the pinned digest table.
func loadPins() (map[string]map[string]string, error) {
	pins := map[string]map[string]string{}
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

// worlds derives the invocation's worlds and their expected digests: pins
// where it has the world (pins hold the workloads' own scale), otherwise a
// serial run in a child process, outside the measured time. References
// run nproc at a time; a serial campaign uses one CPU.
func worlds(w workload, o options, pins map[string]map[string]string, stderr io.Writer) ([]world, error) {
	ws := make([]world, worldsPerRun)
	errs := make([]error, worldsPerRun)
	sem := make(chan struct{}, nproc())
	var wg sync.WaitGroup
	for k := range ws {
		ws[k].seed = worldSeed(o.seed, k)
		if o.expect != "" {
			ws[k].digest, ws[k].source = o.expect, "given"
			continue
		}
		if d, ok := pins[w.ref][strconv.FormatInt(ws[k].seed, 10)]; ok && o.scaleOf(w) == w.scale {
			ws[k].digest, ws[k].source = d, "pinned"
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ws[k].source = "serial reference"
			if _, err := spawn(o.childArgs(w, "--ref", ws[k].seed, false), &ws[k].digest, stderr); err != nil {
				errs[k] = fmt.Errorf("reference for %s world %d: %w", w.name, ws[k].seed, err)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// sample is one repetition as the parent saw it.
type sample struct {
	world int
	rep   *repResult
	rssMB float64
}

// outcome is one workload's result over an invocation.
type outcome struct {
	w                 workload
	seed              int64
	worlds            []world
	attempted, failed int
	// untraced give the end-to-end metrics, traced the per-layer ones.
	untraced, traced []sample
	spanFile         string
	// steal is the share of CPU time the hypervisor took from this
	// machine while the repetitions ran, or -1 where unknown. Wall-clock
	// figures measured under steal are slower for reasons outside the
	// program.
	steal float64
}

// benchWorkload repeats w in child processes, cycling through the
// invocation's worlds, until o.seconds are spent and every world ran at
// least once. With tracing, each world runs untraced and then traced: the
// untraced repetitions give the end-to-end metrics, the traced ones the
// per-layer metrics and spans.
func benchWorkload(w workload, o options, stderr io.Writer) (*outcome, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	ws, err := worlds(w, o, pins, stderr)
	if err != nil {
		return nil, err
	}
	out := &outcome{w: w, seed: o.seed, worlds: ws}
	repsPerWorld := 1
	if o.trace {
		repsPerWorld = 2
	}
	start := time.Now()
	cpu0, cpuErr := cpuTicks()
	for i := 0; time.Since(start).Seconds() < o.seconds || i < repsPerWorld*len(ws); i++ {
		k := (i / repsPerWorld) % len(ws)
		traced := o.trace && i%2 == 1
		var rep repResult
		rss, err := spawn(o.childArgs(w, "--child", ws[k].seed, traced), &rep, stderr)
		out.attempted++
		switch {
		case err != nil:
		case rep.Digest != ws[k].digest:
			err = fmt.Errorf("output digest %s, want %s (%s)", rep.Digest, ws[k].digest, ws[k].source)
		}
		if err != nil {
			fmt.Fprintf(stderr, "coldbench: %s world %d run %d failed: %v\n", w.name, ws[k].seed, i, err)
			out.failed++
			continue
		}
		s := sample{world: k, rep: &rep, rssMB: rss}
		if traced {
			out.traced = append(out.traced, s)
		} else {
			out.untraced = append(out.untraced, s)
		}
	}
	out.steal = -1
	if cpu1, err := cpuTicks(); err == nil && cpuErr == nil && cpu1.total > cpu0.total {
		out.steal = float64(cpu1.steal-cpu0.steal) / float64(cpu1.total-cpu0.total)
	}
	if o.trace {
		out.spanFile = filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		if err := out.writeSpans(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type ticks struct{ steal, total uint64 }

// cpuTicks reads the machine's steal and total CPU time from /proc/stat.
func cpuTicks() (ticks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return ticks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var t ticks
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return ticks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // guest time is already counted in user time
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// endToEnd pools the untraced repetitions of every world.
func (out *outcome) endToEnd() map[string][]float64 {
	m := map[string][]float64{}
	for _, s := range out.untraced {
		m["setup_s"] = append(m["setup_s"], s.rep.SetupS)
		m["run_s"] = append(m["run_s"], s.rep.RunS)
		m["total_s"] = append(m["total_s"], s.rep.SetupS+s.rep.RunS)
		m["peak_rss_mb"] = append(m["peak_rss_mb"], s.rssMB)
	}
	return m
}

// perWorld takes the median of f over each world's samples and averages
// those medians over the worlds that have one, so that every world weighs
// the same however many times it ran.
func perWorld(ss []sample, f func(sample) (float64, bool)) (float64, bool) {
	by := map[int][]float64{}
	for _, s := range ss {
		if v, ok := f(s); ok {
			by[s.world] = append(by[s.world], v)
		}
	}
	if len(by) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, xs := range by {
		sum += median(xs)
	}
	return sum / float64(len(by)), true
}

// layerValue is a per-layer figure over the traced samples: the mean over
// worlds of each world's median, so counts repeat exactly from run to run.
// A figure no traced sample recorded reads 0, except a ratio, which is
// absent (false) when its denominator was zero.
func (out *outcome) layerValue(name string) (float64, bool) {
	if len(out.traced) == 0 {
		return 0, false
	}
	if name == "trace.overhead_s" {
		// Traced minus untraced run_s, on the worlds that ran both ways.
		run := map[int][]float64{}
		for _, s := range out.untraced {
			run[s.world] = append(run[s.world], s.rep.RunS)
		}
		return perWorld(out.traced, func(s sample) (float64, bool) {
			if len(run[s.world]) == 0 {
				return 0, false
			}
			return s.rep.RunS - median(run[s.world]), true
		})
	}
	if v, ok := perWorld(out.traced, func(s sample) (float64, bool) {
		v, ok := s.rep.Layers[name]
		return v, ok
	}); ok {
		return v, true
	}
	_, isRatio := out.traced[0].rep.Layers[name+"/den"]
	return 0, !isRatio
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable line that ends each workload's report.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (out *outcome) result(traced bool) result {
	r := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	if traced {
		for _, m := range perLayer {
			if v, ok := out.layerValue(m.name); ok {
				r.Metrics[m.name] = value{v, m.unit}
			}
		}
		return r
	}
	e2e := out.endToEnd()
	for _, m := range endToEnd {
		if xs := e2e[m.name]; len(xs) > 0 {
			r.Metrics[m.name] = value{median(xs), m.unit}
		}
	}
	r.Metrics["pass_share"] = value{float64(out.attempted-out.failed) / float64(out.attempted), "ratio"}
	return r
}

// print writes the human-readable report, then the result line: the
// end-to-end metrics, or with tracing the per-layer ones.
func (out *outcome) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "== %s seed %d: %d runs over %d worlds, %d failed (failed_share %.4g = %d/%d)\n",
		out.w.name, out.seed, out.attempted, len(out.worlds), out.failed,
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	fmt.Fprintf(w, "output check: %d/%d runs matched their world's digest\n", out.attempted-out.failed, out.attempted)
	if out.w.experiments {
		for id, why := range leftOut {
			fmt.Fprintf(w, "left out: %s, because %s\n", id, why)
		}
	}
	if out.steal >= 0 {
		fmt.Fprintf(w, "host: %.1f%% of CPU time was stolen by the hypervisor during the runs\n", 100*out.steal)
	}
	shapes := map[int]int{}
	for _, ss := range [][]sample{out.untraced, out.traced} {
		for _, s := range ss {
			shapes[s.world] = s.rep.ShapePass
		}
	}
	for k, wd := range out.worlds {
		fmt.Fprintf(w, "  world %-8d %s (%s)", wd.seed, wd.digest, wd.source)
		if n, ok := shapes[k]; ok && out.w.experiments {
			// A verdict is part of the checked report: it is the
			// experiment's result on this world, the same on every engine.
			fmt.Fprintf(w, ", %d/%d shape checks passed", n, len(benchRunners()))
		}
		fmt.Fprintln(w)
	}
	e2e := out.endToEnd()
	for _, m := range endToEnd {
		xs := e2e[m.name]
		if len(xs) == 0 {
			continue
		}
		q1, med, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-28s %12.4f %-12s median of %d untraced, q1 %.4f q3 %.4f\n", m.name, med, m.unit, len(xs), q1, q3)
	}
	if traced {
		fmt.Fprintf(w, "  per-layer, mean over worlds of the median of %d traced runs:\n", len(out.traced))
		for _, m := range perLayer {
			v, ok := out.layerValue(m.name)
			if !ok {
				fmt.Fprintf(w, "  %-28s %12s %-12s\n", m.name, "absent", m.unit)
				continue
			}
			base := ""
			if _, isRatio := out.traced[0].rep.Layers[m.name+"/den"]; isRatio {
				num, _ := out.layerValue(m.name + "/num")
				den, _ := out.layerValue(m.name + "/den")
				base = fmt.Sprintf("(%.6g / %.6g)", num, den)
			}
			fmt.Fprintf(w, "  %-28s %12.6g %-12s %s\n", m.name, v, m.unit, base)
		}
		out.printSelfTimes(w)
	}
	line, _ := json.Marshal(out.result(traced)) // maps of numbers and strings always marshal
	fmt.Fprintf(w, "%s\n", line)
}

// printSelfTimes lists each span name's self time, and how much of run_s
// the layer spans below the run root cover.
func (out *outcome) printSelfTimes(w io.Writer) {
	names := map[string]bool{}
	for _, s := range out.traced {
		for _, sp := range s.rep.Spans {
			names[sp.Name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	cover, _ := perWorld(out.traced, func(s sample) (float64, bool) {
		return 1 - s.rep.Layers["trace.glue_s"]/s.rep.RunS, true
	})
	fmt.Fprintf(w, "  span self times (s), spans cover %.4f of traced run_s; spans in %s:\n", cover, out.spanFile)
	for _, name := range sorted {
		self, _ := perWorld(out.traced, func(s sample) (float64, bool) {
			t := 0.0
			for _, sp := range s.rep.Spans {
				if sp.Name == name {
					t += sp.Self
				}
			}
			return t, true
		})
		fmt.Fprintf(w, "    %-30s %10.4f\n", name, self)
	}
}

// writeSpans writes every traced repetition's spans, with self times.
func (out *outcome) writeSpans() error {
	type rep struct {
		World int64   `json:"world"`
		RunS  float64 `json:"run_s"`
		Spans []span  `json:"spans"`
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Reps     []rep  `json:"reps"`
	}{Workload: out.w.name, Seed: out.seed}
	for _, s := range out.traced {
		doc.Reps = append(doc.Reps, rep{out.worlds[s.world].seed, s.rep.RunS, s.rep.Spans})
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out.spanFile, b, 0o644)
}

// pinDigests recomputes the serial reference digests of every world of
// each seed in list and merges them into the digest file at path.
func pinDigests(ws []workload, o options, list, path string, stderr io.Writer) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	o.scale = nil
	for _, f := range strings.Split(list, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("-pin: %w", err)
		}
		o.seed = seed
		for _, w := range ws {
			if w.ref != w.name {
				continue // its digests are pinned under the workload it must match
			}
			wds, err := worlds(w, o, nil, stderr)
			if err != nil {
				return err
			}
			if pins[w.name] == nil {
				pins[w.name] = map[string]string{}
			}
			for _, wd := range wds {
				pins[w.name][strconv.FormatInt(wd.seed, 10)] = wd.digest
			}
			fmt.Fprintf(stderr, "pinned %s seed %d\n", w.name, seed)
		}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
