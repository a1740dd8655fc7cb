package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"wormhole/internal/campaign"
	"wormhole/internal/experiments"
	"wormhole/internal/gen"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/reveal"
	"wormhole/internal/tracefile"
)

// workload is one input set the benchmark runs. Every workload builds a
// fresh world from the seed and drives the program's public entry points
// with the defaults a user gets: the benchmark sets no fast-path switch.
type workload struct {
	name   string
	scale  experiments.Scale
	method probe.Method
	// dist runs the campaign through RunDistributed instead of
	// RunParallel; experiments runs the paper's experiments instead of
	// writing a dataset.
	dist, experiments bool
	// ref names the workload whose serial output this one must match.
	ref string
}

var workloads = []workload{
	{name: "large-icmp", scale: experiments.Large, method: probe.ICMPParis, ref: "large-icmp"},
	{name: "large-udp", scale: experiments.Large, method: probe.UDPParis, ref: "large-udp"},
	{name: "medium-experiments", scale: experiments.Medium, experiments: true, ref: "medium-experiments"},
	{name: "large-dist", scale: experiments.Large, method: probe.ICMPParis, dist: true, ref: "large-icmp"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nproc is the load of one process: campaign workers and GOMAXPROCS both
// equal the CPUs the process may run on.
func nproc() int { return runtime.NumCPU() }

// repResult is what one repetition reports to the parent process.
type repResult struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// Digest is the SHA-256 of the written output: the dataset file, or
	// the experiments' Markdown report.
	Digest string `json:"digest"`
	// ShapePass counts experiment reports whose shape check did not fail.
	ShapePass int `json:"shape_pass"`
	// Layers holds the per-layer metrics of a traced repetition. A ratio
	// whose denominator is zero is left out.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// runRep builds a fresh world and runs one repetition of w in this
// process, writing its output under dir. setup_s times gen.Build; run_s
// times everything from the built world to the written output.
func runRep(w workload, scale experiments.Scale, seed int64, traced bool, dir string) (*repResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &repResult{Layers: map[string]float64{}}

	id := tr.begin("gen.build")
	t0 := time.Now()
	in, err := gen.Build(scale.Params(seed))
	res.SetupS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}

	out := filepath.Join(dir, fmt.Sprintf("%s-%d.out", w.name, seed))
	root := tr.begin("run")
	t1 := time.Now()
	var c *campaign.Campaign
	if w.experiments {
		c, res.ShapePass, err = runExperiments(tr, in, scale, seed, out, res.Layers)
	} else {
		c, err = runCampaign(tr, w, in, scale, seed, dir, out, res.Layers)
	}
	res.RunS = time.Since(t1).Seconds()
	tr.end(root)
	if err != nil {
		return nil, err
	}

	if res.Digest, err = fileDigest(out); err != nil {
		return nil, err
	}
	_ = os.Remove(out) // a run leaves no output behind; the digest is kept
	if !traced {
		res.Layers = nil
		return res, nil
	}
	campaignLayers(res.Layers, c)
	if w.experiments {
		// The churn runner's campaigns run on the world's pooled replicas,
		// so the fabric counters of the whole workload are the source
		// fabric's plus those replicas'.
		flow, sweep, err := fabricTotals(in)
		if err != nil {
			return nil, err
		}
		netsimLayers(res.Layers, flow, sweep)
	}
	if w.dist {
		if err := wireLayers(tr, in, res.Layers); err != nil {
			return nil, err
		}
	}
	selfTimes(tr.spans)
	res.Layers["trace.glue_s"] = tr.spans[root].Self
	res.Spans = tr.spans
	return res, nil
}

// runCampaign runs one campaign on the fresh world and writes its dataset,
// as `wormhole campaign -scale <s> -out` does.
func runCampaign(tr *tracer, w workload, in *gen.Internet, scale experiments.Scale, seed int64, dir, out string, lay map[string]float64) (*campaign.Campaign, error) {
	cfg := scale.CampaignConfig()
	cfg.Method = w.method
	c, err := timedCampaign(tr, lay, func() (*campaign.Campaign, error) {
		if w.dist {
			return runDistributed(in, cfg, dir)
		}
		return campaign.RunParallel(in, cfg, campaign.ParallelConfig{Workers: nproc()})
	})
	if err != nil {
		return nil, err
	}
	id := tr.begin("tracefile.write")
	t := time.Now()
	ds := c.Dataset(datasetComment(scale, seed))
	err = tracefile.Save(out, ds)
	lay["tracefile.write_s"] = time.Since(t).Seconds()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("write dataset: %w", err)
	}
	if st, err := os.Stat(out); err == nil {
		lay["tracefile.mb"] = mb(uint64(st.Size()))
	}
	return c, nil
}

// datasetComment is the header `wormhole campaign -out` writes, so the
// digests cover the file a user gets.
func datasetComment(scale experiments.Scale, seed int64) string {
	return fmt.Sprintf("seed=%d scale=%s", seed, scale)
}

// timedCampaign times one call into the campaign engine and records its
// phase split, memory-statistics deltas and (when traced) spans.
func timedCampaign(tr *tracer, lay map[string]float64, call func() (*campaign.Campaign, error)) (*campaign.Campaign, error) {
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	id := tr.begin("campaign.run")
	t := time.Now()
	c, err := call()
	d := time.Since(t)
	if err != nil {
		tr.end(id)
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if tr != nil {
		tr.add(id, tr.spans[id].Start, []namedDur{
			{"gen.snapshot", c.Phase.Replica},
			{"campaign.bootstrap", c.Phase.Bootstrap},
			{"campaign.probe", c.Phase.Probe},
		})
	}
	tr.end(id)
	if tr != nil {
		runtime.ReadMemStats(&m1)
		lay["campaign.alloc_mb"] = mb(m1.TotalAlloc - m0.TotalAlloc)
		lay["campaign.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		ratio(lay, "campaign.allocs_per_probe", float64(m1.Mallocs-m0.Mallocs), float64(c.Probes))
	}
	lay["gen.snapshot_s"] = c.Phase.Replica.Seconds()
	lay["campaign.bootstrap_s"] = c.Phase.Bootstrap.Seconds()
	lay["campaign.probe_s"] = c.Phase.Probe.Seconds()
	lay["campaign.merge_s"] = (d - c.Phase.Replica - c.Phase.Bootstrap - c.Phase.Probe).Seconds()
	return c, nil
}

// runDistributed runs the campaign through the coordinator/worker socket
// protocol with nproc workers in snapshot mode. The workers are goroutines
// of this process speaking the full protocol over a Unix socket; every one
// has returned before this does.
func runDistributed(in *gen.Internet, cfg campaign.Config, dir string) (*campaign.Campaign, error) {
	sock := filepath.Join(dir, "dist.sock")
	_ = os.Remove(sock) // a stale socket from a killed run would block Listen
	var wg sync.WaitGroup
	spawn := func(_ int, network, addr string) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial(network, addr)
			if err != nil {
				return
			}
			_ = campaign.ServeWorker(conn) // a worker failure surfaces as the coordinator's WorkerError
		}()
		return nil
	}
	c, err := campaign.RunDistributed(in, cfg, campaign.DistConfig{
		Workers: nproc(),
		Replica: campaign.ReplicaSnapshot,
		Network: "unix",
		Addr:    sock,
		Spawn:   spawn,
	})
	wg.Wait()
	return c, err
}

// leftOut names the experiment runners the benchmark does not run, with
// the reason. Fig10DegreeCorrection picks its "densest mesh" AS by ranging
// over a map and keeping the first maximum, so on a world where two ASes
// tie its report changes from run to run, and no digest can check it.
var leftOut = map[string]string{
	"fig10": "its densest-AS pick follows map order when ASes tie, so its report is not a function of the world",
}

// benchRunners are the runners of experiments.All() the experiments
// workload runs, in paper order: every one whose report is a function of
// the world.
func benchRunners() []experiments.Runner {
	var rs []experiments.Runner
	for _, r := range experiments.All() {
		if _, skip := leftOut[r.ID]; !skip {
			rs = append(rs, r)
		}
	}
	return rs
}

// runExperiments runs the campaign experiments.NewWorldParallel runs and
// then the benchRunners on that world, and writes the Markdown report, as
// `wormhole experiments -scale <s> -md <file> <ids>` does.
func runExperiments(tr *tracer, in *gen.Internet, scale experiments.Scale, seed int64, out string, lay map[string]float64) (*campaign.Campaign, int, error) {
	id := tr.begin("experiments.world")
	t := time.Now()
	c, err := timedCampaign(tr, lay, func() (*campaign.Campaign, error) {
		return campaign.RunParallel(in, scale.CampaignConfig(), campaign.ParallelConfig{Workers: nproc()})
	})
	lay["experiments.world_s"] = time.Since(t).Seconds()
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	world := &experiments.World{In: in, C: c}
	var reports []*experiments.Report
	pass := 0
	for _, r := range benchRunners() {
		id := tr.begin("experiments." + r.ID)
		t := time.Now()
		rep, err := r.Run(world)
		d := time.Since(t).Seconds()
		tr.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("experiment %s: %w", r.ID, err)
		}
		switch r.ID {
		case "aliases", "churn", "table3":
			lay["experiments."+r.ID+"_s"] = d
		default:
			lay["experiments.other_s"] += d
		}
		if !strings.HasPrefix(rep.Check, "FAILED") {
			pass++
		}
		reports = append(reports, rep)
	}
	lay["experiments.shape_pass"] = float64(pass)
	id = tr.begin("experiments.markdown")
	err = writeMarkdown(out, seed, scale, reports)
	tr.end(id)
	return c, pass, err
}

func writeMarkdown(path string, seed int64, scale experiments.Scale, reports []*experiments.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteMarkdown(f, seed, scale.String(), reports); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return f.Close()
}

// campaignLayers records the counts a campaign returns.
func campaignLayers(lay map[string]float64, c *campaign.Campaign) {
	lay["campaign.probes"] = float64(c.Probes)
	lay["campaign.bootstrap_probes"] = float64(c.BootstrapProbes())
	lay["campaign.targets"] = float64(len(c.Targets))
	lay["campaign.records"] = float64(len(c.Records))
	lay["campaign.budget_hits"] = float64(c.BudgetHits)
	lay["campaign.loop_drops"] = float64(c.LoopDrops)
	lay["campaign.churn_events"] = float64(c.ChurnEvents)
	slowest, mean := shardBalance(c.Shards)
	ratio(lay, "campaign.shard_imbalance", slowest, mean)
	netsimLayers(lay, c.FlowCache, c.Sweep)
	var revealed, failed, hidden int
	for _, rev := range c.Revelations() {
		if rev.Technique == reveal.TechNone {
			failed++
		} else {
			revealed++
		}
		hidden += len(rev.Hops)
	}
	lay["reveal.revelations"] = float64(revealed)
	lay["reveal.failed"] = float64(failed)
	lay["reveal.hidden_hops"] = float64(hidden)
	if c.StreamBytes > 0 {
		lay["dist.stream_mb"] = mb(c.StreamBytes)
		lay["dist.worker_resident"] = float64(c.ReplicaResident) / float64(c.Workers)
	}
}

// shardBalance returns the slowest worker's total shard time and the
// mean across the workers that ran shards, in seconds.
func shardBalance(shards []campaign.ShardStats) (slowest, mean float64) {
	per := map[int]float64{}
	total := 0.0
	for _, s := range shards {
		per[s.Worker] += s.Elapsed.Seconds()
		total += s.Elapsed.Seconds()
	}
	for _, d := range per {
		slowest = max(slowest, d)
	}
	if len(per) > 0 {
		mean = total / float64(len(per))
	}
	return slowest, mean
}

func netsimLayers(lay map[string]float64, fc netsim.FlowCacheStats, sw netsim.SweepStats) {
	s := sw.Total()
	lay["netsim.sweep_walks"] = float64(s.Walks)
	lay["netsim.sweep_replies"] = float64(s.Replies)
	lay["netsim.sweep_fallbacks"] = float64(s.Fallbacks)
	lay["netsim.sweep_bypasses"] = float64(s.Bypasses)
	lay["netsim.sweep_aliases"] = float64(s.Aliases)
	ratio(lay, "netsim.sweep_yield", float64(s.Replies), float64(s.Replies+s.Fallbacks))
	lay["netsim.cache_hits"] = float64(fc.Hits)
	lay["netsim.cache_misses"] = float64(fc.Misses)
	lay["netsim.cache_fast_forwards"] = float64(fc.FastForwards)
	lay["netsim.cache_shared_hits"] = float64(fc.SharedHits)
	lay["netsim.cache_invalidations"] = float64(fc.Invalidations)
	ratio(lay, "netsim.cache_hit_ratio", float64(fc.Hits), float64(fc.Hits+fc.Misses))
}

// fabricTotals sums the cumulative fabric counters of the source world
// and its pooled replicas. Replicas the pool dropped mid-workload (a
// mutated fabric) are not counted.
func fabricTotals(in *gen.Internet) (netsim.FlowCacheStats, netsim.SweepStats, error) {
	flow, sweep := in.Net.FlowCacheStats(), in.Net.SweepStats()
	reps, err := in.AcquireReplicas(nproc(), false)
	if err != nil {
		return flow, sweep, fmt.Errorf("replica pool: %w", err)
	}
	defer in.ReleaseReplicas(reps)
	for _, r := range reps {
		f := r.Net.FlowCacheStats()
		flow.Hits += f.Hits
		flow.Misses += f.Misses
		flow.FastForwards += f.FastForwards
		flow.Invalidations += f.Invalidations
		flow.SharedHits += f.SharedHits
		sweep.Add(r.Net.SweepStats())
	}
	return flow, sweep, nil
}

// wireLayers times the world codec the distributed engine uses inside
// RunDistributed, with calls of its own outside the timed run.
func wireLayers(tr *tracer, in *gen.Internet, lay map[string]float64) error {
	id := tr.begin("wire.encode")
	t := time.Now()
	blob, err := in.EncodeWire()
	lay["wire.encode_s"] = time.Since(t).Seconds()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	lay["wire.blob_mb"] = mb(uint64(len(blob)))
	id = tr.begin("wire.decode")
	t = time.Now()
	_, err = gen.DecodeWire(blob)
	lay["wire.decode_s"] = time.Since(t).Seconds()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

// ratio records num/den under name with its base under name+"/num" and
// name+"/den". The ratio itself is absent when den is zero.
func ratio(lay map[string]float64, name string, num, den float64) {
	lay[name+"/num"], lay[name+"/den"] = num, den
	if den != 0 {
		lay[name] = num / den
	}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("digest %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// refDigest is the output a serial campaign.Run gives on a fresh world of
// the same seed, written as the workload writes it (for the experiments,
// the report over that serial campaign): what every engine must reproduce
// byte for byte.
func refDigest(w workload, scale experiments.Scale, seed int64, dir string) (string, error) {
	out := filepath.Join(dir, fmt.Sprintf("%s-%d.ref", w.ref, seed))
	in, err := gen.Build(scale.Params(seed))
	if err != nil {
		return "", fmt.Errorf("build: %w", err)
	}
	cfg := scale.CampaignConfig()
	cfg.Method = w.method
	c := campaign.Run(in, cfg)
	if w.experiments {
		world := &experiments.World{In: in, C: c}
		var reports []*experiments.Report
		for _, r := range benchRunners() {
			rep, err := r.Run(world)
			if err != nil {
				return "", fmt.Errorf("experiment %s: %w", r.ID, err)
			}
			reports = append(reports, rep)
		}
		if err := writeMarkdown(out, seed, scale, reports); err != nil {
			return "", err
		}
	} else {
		if err := tracefile.Save(out, c.Dataset(datasetComment(scale, seed))); err != nil {
			return "", err
		}
	}
	defer os.Remove(out)
	return fileDigest(out)
}
