// Command coldbench is the repository's end-to-end benchmark. It runs cold
// campaigns the way a user does — build a fresh world, run one campaign or
// the paper's experiments on it, write the output — and reports end-to-end
// and per-layer metrics, checking every output against a pinned or
// serially computed digest.
//
// One invocation measures worldsPerRun worlds derived from its seed, so
// that its figures describe the scale rather than one topology. Each
// repetition runs in a child process of its own, so that its peak resident
// set is that repetition's alone; the parent cycles through the worlds
// until the measuring time is spent and reports medians. See README.md for
// the workloads and metrics.
//
//	coldbench --workload large-icmp,large-udp --seed 7 --seconds 10 --trace 1
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wormhole/internal/experiments"
)

// digestsJSON pins each workload's output digest per world seed, at the
// workload's own scale: workload → world seed → SHA-256. Regenerate with
// -pin.
//
//go:embed digests.json
var digestsJSON []byte

// childTimeout bounds one repetition; a run that exceeds it is killed and
// counted as failed.
const childTimeout = 60 * time.Second

// worldsPerRun is how many worlds one invocation measures. World sizes
// differ from seed to seed by more than the run-to-run noise, so one world
// per invocation would make the figures depend on which seed was drawn.
const worldsPerRun = 8

// worldStride separates the world seeds of one invocation: world k of seed
// n is built from n + k·worldStride, so world 0 is the seed's own world
// and nearby seeds share no world.
const worldStride = 100003

func worldSeed(seed int64, k int) int64 { return seed + int64(k)*worldStride }

type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scale overrides the workloads' own scale when set (the self-test
	// runs at Small). Pinned digests apply only at the workloads' scale.
	scale *experiments.Scale
	dir   string
	// expect, when set, replaces the pinned or reference digest.
	expect string
}

func main() {
	runtime.GOMAXPROCS(nproc())
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coldbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workloads to run, or all")
	seed := fs.Int64("seed", 2024, "seed the worlds are derived from (with -child or -ref: the world's own seed)")
	seconds := fs.Float64("seconds", 10, "how long to repeat each workload")
	trace := fs.Int("trace", 0, "1 runs traced repetitions beside untraced ones and reports the per-layer metrics")
	scaleName := fs.String("scale", "", "run every workload at this scale instead of its own (small, medium, large)")
	dir := fs.String("dir", filepath.Join(".bench_build", "coldbench"), "directory for outputs and span files")
	pin := fs.String("pin", "", "comma-separated seeds: recompute the digests of their worlds serially and write them to -pin-out")
	pinOut := fs.String("pin-out", filepath.Join("coldbench", "digests.json"), "digest file -pin writes")
	child := fs.Bool("child", false, "run one repetition in this process (used by the parent)")
	ref := fs.Bool("ref", false, "print the serial reference digest (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "coldbench: --trace must be 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	if *scaleName != "" {
		s, err := parseScale(*scaleName)
		if err != nil {
			fmt.Fprintln(stderr, "coldbench:", err)
			return 2
		}
		o.scale = &s
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "coldbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "coldbench:", err)
		return 1
	}

	switch {
	case *child || *ref:
		err = childMain(ws[0], o, *ref, stdout)
	case *pin != "":
		err = pinDigests(ws, o, *pin, *pinOut, stderr)
	default:
		for _, w := range ws {
			var out *outcome
			if out, err = benchWorkload(w, o, stderr); err != nil {
				break
			}
			out.print(stdout, o.trace)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "coldbench:", err)
		return 1
	}
	return 0
}

func parseScale(s string) (experiments.Scale, error) {
	for _, sc := range []experiments.Scale{experiments.Small, experiments.Medium, experiments.Large} {
		if sc.String() == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want small, medium or large)", s)
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "all" {
		return workloads, nil
	}
	var ws []workload
	for _, name := range strings.Split(list, ",") {
		w, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func (o options) scaleOf(w workload) experiments.Scale {
	if o.scale != nil {
		return *o.scale
	}
	return w.scale
}

// childMain runs one repetition (or the reference) and prints its result
// as one JSON line.
func childMain(w workload, o options, ref bool, stdout io.Writer) error {
	var v any
	var err error
	if ref {
		v, err = refDigest(w, o.scaleOf(w), o.seed, o.dir)
	} else {
		v, err = runRep(w, o.scaleOf(w), o.seed, o.trace, o.dir)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(v)
}

// spawn runs this program as a child with args and decodes the JSON line
// it prints into v. It returns the child's peak resident set in MB.
func spawn(args []string, v any, stderr io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	err = cmd.Run()
	rss := 0.0
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return rss, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(out.Bytes(), v); err != nil {
		return rss, fmt.Errorf("child %v: bad result: %w", args, err)
	}
	return rss, nil
}

// childArgs runs w on the world built from seed in a child.
func (o options) childArgs(w workload, mode string, seed int64, traced bool) []string {
	args := []string{mode, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--dir", o.dir, "--scale", o.scaleOf(w).String()}
	if traced {
		args = append(args, "--trace", "1")
	}
	return args
}
