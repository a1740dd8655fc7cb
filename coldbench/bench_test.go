package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"wormhole/internal/experiments"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the parent spawns a repetition or a reference run.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "--child" || os.Args[1] == "--ref") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func smallOptions(t *testing.T, seed int64) options {
	small := experiments.Small
	return options{seed: seed, trace: true, scale: &small, dir: t.TempDir()}
}

// TestEveryMetricEmitted runs every workload at Small and checks that the
// untraced and traced result lines carry every metric BENCHMARK.json names,
// with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		out, err := benchWorkload(w, smallOptions(t, 1), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for traced, ms := range map[bool][]metric{false: endToEnd, true: perLayer} {
			got := out.result(traced).Metrics
			for _, m := range ms {
				v, ok := got[m.name]
				if !ok {
					t.Errorf("%s: metric %s not emitted (traced=%v)", w.name, m.name, traced)
				} else if v.Unit != m.unit {
					t.Errorf("%s: metric %s in %q, want %q", w.name, m.name, v.Unit, m.unit)
				}
			}
			if len(got) != len(ms) {
				t.Errorf("%s: %d metrics emitted, want %d (traced=%v)", w.name, len(got), len(ms), traced)
			}
		}
	}
}

// TestTamperedDigestFails checks that a run whose output does not match
// the expected digest counts as failed.
func TestTamperedDigestFails(t *testing.T) {
	o := smallOptions(t, 1)
	o.trace = false
	o.expect = "0000000000000000000000000000000000000000000000000000000000000000"
	for _, w := range workloads {
		out, err := benchWorkload(w, o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := out.result(false)
		if r.Correct || r.Failed != r.Attempted || r.Attempted == 0 {
			t.Errorf("%s: tampered digest gave correct=%v failed=%d attempted=%d", w.name, r.Correct, r.Failed, r.Attempted)
		}
	}
}

// TestSeedChangesDigests checks that the seed reaches the inputs: two seeds
// share no world and no output digest.
func TestSeedChangesDigests(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]int64{}
		for _, seed := range []int64{1, 2} {
			ws, err := worlds(w, smallOptions(t, seed), nil, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for _, wd := range ws {
				if prev, ok := seen[wd.digest]; ok && prev != seed {
					t.Errorf("%s: seeds %d and %d both produce digest %s", w.name, prev, seed, wd.digest)
				}
				seen[wd.digest] = seed
			}
		}
	}
}

// TestBenchmarkJSONAgrees holds the benchmark's metric and workload lists in
// step with BENCHMARK.json.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s unknown to the benchmark", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestSelfTimes checks the span arithmetic on a hand-built trace.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "b", Start: 4, End: 9, Parent: 0},
		{Name: "b1", Start: 5, End: 6, Parent: 2},
	}
	selfTimes(spans)
	for i, want := range []float64{2, 3, 4, 1} {
		if spans[i].Self != want {
			t.Errorf("%s self %v, want %v", spans[i].Name, spans[i].Self, want)
		}
	}
}

// TestLeftOutRunners checks that every runner the benchmark leaves out
// exists, and that it runs all the others.
func TestLeftOutRunners(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range experiments.All() {
		ids[r.ID] = true
	}
	for id := range leftOut {
		if !ids[id] {
			t.Errorf("left-out runner %s is not in experiments.All()", id)
		}
	}
	if got, want := len(benchRunners()), len(ids)-len(leftOut); got != want {
		t.Errorf("%d runners run, want %d", got, want)
	}
}
