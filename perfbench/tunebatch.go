package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"edgetune"
	"edgetune/internal/core"
	"edgetune/internal/device"
	"edgetune/internal/obs"
	"edgetune/internal/obs/slo"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

const (
	// batchConfigs and batchRungs size every job to one bracket.
	batchConfigs = 8
	batchRungs   = 6
	// batchSeconds is the wall time of one batch on the reference
	// machine (2 cores); a run measures seconds/batchSeconds whole
	// batches, so its length in work is fixed for a given -seconds.
	batchSeconds = 7
	// workloadSeedMix is how edgetune.Tune derives a job's workload
	// seed from the job seed.
	workloadSeedMix = 0x9e3779b9
)

// batchJobs is batch b of a run: EdgeTune onefold on each workload
// family, then the inference-unaware Tune baseline (epochs budget) on
// IC. All five share the job seed, which differs per batch, so a run
// averages over several sets of sampled configurations.
func batchJobs(seed uint64, b int) []edgetune.Job {
	jobSeed := seed*1000 + uint64(b)
	var jobs []edgetune.Job
	for _, id := range workload.IDs() {
		jobs = append(jobs, edgetune.Job{Workload: id, Configs: batchConfigs, Rungs: batchRungs, Brackets: 1, Seed: jobSeed})
	}
	return append(jobs, edgetune.Job{
		Workload: "IC", WithoutInference: true, Budget: edgetune.BudgetEpochs,
		Configs: batchConfigs, Rungs: batchRungs, Brackets: 1, Seed: jobSeed,
	})
}

// jobName labels a job in notes and spans.
func jobName(j edgetune.Job) string {
	if j.WithoutInference {
		return j.Workload + "-tune-baseline"
	}
	return j.Workload + "-edgetune"
}

// batchesFor is the number of whole batches a run of the given length
// measures.
func batchesFor(seconds float64) int {
	return max(1, int(seconds/batchSeconds+0.5))
}

// batchStore points every job of a batch at one durable historical
// store with checkpoints, in a fresh directory.
func batchStore(r *run, b int, jobs []edgetune.Job, tag string) (string, error) {
	path := filepath.Join(r.dir, fmt.Sprintf("%s-batch%d", tag, b), "hist.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	for i := range jobs {
		jobs[i].StorePath = path
		jobs[i].StoreWAL = true
		jobs[i].Checkpoint = true
	}
	return path, nil
}

// outcome is the part of a job's result that the public report and
// core.Result both carry; traced and untraced runs must agree on it.
type outcome struct {
	Workload, Device, Metric                    string
	BestConfig                                  map[string]float64
	BestAccuracy, MaxAccuracy                   float64
	ReachedTarget                               bool
	TuningMinutes, TuningEnergyKJ               float64
	TrialsRun, CacheHits, CacheMisses           int
	RecDevice                                   string
	RecBatch, RecCores                          int
	RecFreq, RecThroughput, RecEnergy, RecLaten float64
	Counters                                    map[string]int64
}

func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data structs always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func reportOutcome(rep *edgetune.Report) outcome {
	o := outcome{
		Workload: rep.Workload, Device: rep.Device, Metric: string(rep.Metric),
		BestConfig: rep.BestConfig, BestAccuracy: rep.BestAccuracy, MaxAccuracy: rep.MaxAccuracy,
		ReachedTarget: rep.ReachedTarget, TuningMinutes: rep.TuningMinutes, TuningEnergyKJ: rep.TuningEnergyKJ,
		TrialsRun: rep.TrialsRun, CacheHits: rep.CacheHits, CacheMisses: rep.CacheMisses,
		RecDevice: rep.Recommendation.Device, RecBatch: rep.Recommendation.BatchSize, RecCores: rep.Recommendation.Cores,
		RecFreq: rep.Recommendation.FrequencyGHz, RecThroughput: rep.Recommendation.Throughput,
		RecEnergy: rep.Recommendation.EnergyPerSampleJ, RecLaten: rep.Recommendation.LatencySeconds,
		Counters: map[string]int64{},
	}
	for _, c := range rep.Metrics.Counters {
		o.Counters[c.Name] = c.Value
	}
	return o
}

func resultOutcome(res core.Result) outcome {
	o := outcome{
		Workload: res.Workload, Device: res.Device, Metric: string(res.Metric),
		BestConfig: res.BestConfig, BestAccuracy: res.BestAccuracy, MaxAccuracy: res.MaxAccuracy,
		ReachedTarget: res.ReachedTarget, TuningMinutes: res.TuningDuration.Minutes(), TuningEnergyKJ: res.TuningEnergyKJ,
		TrialsRun: res.TrialsRun, CacheHits: res.CacheHits, CacheMisses: res.CacheMisses,
		Counters: map[string]int64{},
	}
	if rec := res.Recommendation; rec.Signature != "" {
		o.RecDevice = rec.Device
		o.RecBatch = int(rec.Config[workload.ParamInferBatch])
		o.RecCores = int(rec.Config[workload.ParamCores])
		o.RecFreq = rec.Config[workload.ParamFreq]
		o.RecThroughput, o.RecEnergy, o.RecLaten = rec.Throughput, rec.EnergyPerSampleJ, rec.LatencySeconds
	}
	for _, c := range res.Metrics.Counters {
		o.Counters[c.Name] = c.Value
	}
	return o
}

// checkReport applies the per-job output checks that hold for every
// seed.
func (r *run) checkReport(j edgetune.Job, rep *edgetune.Report) bool {
	ok := rep.TrialsRun > 0 && rep.BestAccuracy > 0 && len(rep.BestConfig) > 0 && rep.Resilience.TotalFaults == 0
	if j.WithoutInference {
		// The baseline never touches the inference server.
		ok = ok && rep.CacheHits+rep.CacheMisses == 0 && rep.Recommendation.Device == ""
	} else {
		ok = ok && rep.Recommendation.Device != "" && rep.Recommendation.Throughput > 0 && !rep.RecommendationDegraded
	}
	r.check(ok, "tune-batch: %s seed %d: implausible report %+v", jobName(j), j.Seed, *rep)
	return ok
}

// checkStore reopens a batch's durable store: nothing may be
// quarantined or cut, and every job keeps its final checkpoint.
func (r *run) checkStore(path string, jobs int) (*store.Durable, error) {
	d, err := store.OpenDurable(store.DurableOptions{SnapshotPath: path})
	if err != nil {
		return nil, fmt.Errorf("reopen batch store: %w", err)
	}
	rec := d.Recovery()
	r.check(rec.RecordsQuarantined == 0 && rec.TruncatedBytes == 0 && !rec.SnapshotQuarantined && rec.Checkpoints == jobs && rec.Entries > 0,
		"tune-batch: reopened store %s: %+v", path, rec)
	return d, nil
}

// goldenJSON holds the committed report digests of the golden seeds.
//
//go:embed golden.json
var goldenJSON []byte

// goldenDigests maps a seed to its batches' report digests, in job
// order.
func goldenDigests() (map[string][][]string, error) {
	var g map[string][][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// checkGolden compares a batch's report digests with the committed
// ones for the seed, when there are any.
func (r *run) checkGolden(golden map[string][][]string, b int, jobs []edgetune.Job, digests []string) {
	for i, d := range digests {
		r.note("digest seed=%d batch=%d job=%s %s", r.seed, b, jobName(jobs[i]), d)
	}
	batches, ok := golden[fmt.Sprint(r.seed)]
	if !ok || b >= len(batches) {
		return
	}
	for i, d := range digests {
		r.check(i < len(batches[b]) && batches[b][i] == d,
			"tune-batch: seed %d batch %d %s report digest %s differs from golden", r.seed, b, jobName(jobs[i]), d)
	}
}

// batchRun is what one untraced batch measured, per job in batch
// order.
type batchRun struct {
	walls, cpus []time.Duration
	trials      []int
	gflop       []float64 // the job's training work, in ops
	digests     []string
	outcomes    []outcome
	failed      int
}

func (br batchRun) wall() time.Duration {
	var t time.Duration
	for _, w := range br.walls {
		t += w
	}
	return t
}

// runBatch runs batch b through the public edgetune.Tune, one job
// after another, and checks its outputs.
func (r *run) runBatch(golden map[string][][]string, b int) (batchRun, error) {
	var br batchRun
	jobs := batchJobs(r.seed, b)
	path, err := batchStore(r, b, jobs, "plain")
	if err != nil {
		return br, err
	}
	defer os.RemoveAll(filepath.Dir(path))
	for _, j := range jobs {
		cpu0 := cpuTime()
		t0 := time.Now()
		rep, err := edgetune.Tune(context.Background(), j)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		if err != nil {
			return br, fmt.Errorf("%s: %w", jobName(j), err)
		}
		br.walls = append(br.walls, wall)
		br.cpus = append(br.cpus, cpu)
		br.trials = append(br.trials, rep.TrialsRun)
		if !r.checkReport(j, rep) {
			br.failed++
		}
		br.digests = append(br.digests, digestOf(rep))
		br.outcomes = append(br.outcomes, reportOutcome(rep))
	}
	r.checkGolden(golden, b, jobs, br.digests)
	d, err := r.checkStore(path, len(jobs))
	if err != nil {
		return br, err
	}
	defer d.Abandon()
	for _, j := range jobs {
		g, err := jobGFLOP(d.Store(), j)
		if err != nil {
			return br, err
		}
		br.gflop = append(br.gflop, g)
	}
	return br, nil
}

// jobGFLOP is the Dense-layer training computation, in GFLOP, of every
// trial in a finished job's ledger, which its final checkpoint in the
// store carries. A trial of epochs e over n samples with Dense layers
// of in×out weights computes e·n·Σ 6·in·out: 2·in·out each for the
// forward product and the weight and input gradients.
func jobGFLOP(st *store.Store, j edgetune.Job) (float64, error) {
	// Checkpoint keys read tune/<workload>/.../inf<inference-aware>/...
	inf := fmt.Sprintf("/inf%t/", !j.WithoutInference)
	for _, key := range st.CheckpointKeys() {
		if !strings.HasPrefix(key, "tune/"+j.Workload+"/") || !strings.Contains(key, inf) {
			continue
		}
		data, _ := st.LoadCheckpoint(key)
		var cp struct {
			Trials []core.TrialRecord `json:"trials"`
		}
		if err := json.Unmarshal(data, &cp); err != nil {
			return 0, fmt.Errorf("checkpoint %s: %w", key, err)
		}
		w, err := workload.New(j.Workload, j.Seed^workloadSeedMix)
		if err != nil {
			return 0, err
		}
		var total float64
		for _, rec := range cp.Trials {
			net, err := w.BuildModel(rec.Config, nil)
			if err != nil {
				return 0, err
			}
			sub, err := w.Split.Train.Subset(rec.Alloc.DataFraction)
			if err != nil {
				return 0, err
			}
			var perSample float64
			for _, s := range denseShapes(w, net, 1) {
				perSample += 6 * float64(s.in) * float64(s.out)
			}
			total += float64(rec.Alloc.Epochs) * float64(sub.Len()) * perSample / 1e9
		}
		if len(cp.Trials) == 0 || total <= 0 {
			return 0, fmt.Errorf("checkpoint %s: empty trial ledger", key)
		}
		return total, nil
	}
	return 0, fmt.Errorf("no final checkpoint for %s seed %d", jobName(j), j.Seed)
}

// tuneSetup builds the run's job list and resolves each job's workload
// (generating its synthetic datasets), which checks every job before
// any is timed.
func tuneSetup(r *run, batches int) (map[string][][]string, error) {
	golden, err := goldenDigests()
	if err != nil {
		return nil, err
	}
	for b := 0; b < batches; b++ {
		for _, j := range batchJobs(r.seed, b) {
			if _, err := workload.New(j.Workload, j.Seed^workloadSeedMix); err != nil {
				return nil, err
			}
		}
	}
	return golden, nil
}

func runTuneBatch(r *run) error {
	batches := batchesFor(r.seconds)
	if r.trace {
		batches = 1
	}
	golden, err := setup(r, func(int) (map[string][][]string, error) { return tuneSetup(r, batches) })
	if err != nil {
		return err
	}
	if r.trace {
		return r.tracedBatch(golden)
	}
	var ws []window
	var trials int
	for b := 0; b < batches; b++ {
		br, err := r.runBatch(golden, b)
		if err != nil {
			return err
		}
		var w window
		var lat []float64
		for i, wall := range br.walls {
			r.note("batch %d %s: %d trials, %.4f GFLOP, %v", b, jobName(batchJobs(r.seed, b)[i]), br.trials[i], br.gflop[i], wall)
			w.ops += br.gflop[i]
			w.wall += wall
			w.cpu += br.cpus[i]
			lat = append(lat, float64(wall.Nanoseconds())/br.gflop[i])
			trials += br.trials[i]
		}
		w.setLatencies(lat)
		ws = append(ws, w)
		r.res.Attempted += int64(len(br.digests))
		r.res.Failed += int64(br.failed)
	}
	ops := r.reportWindows(ws, "batches")
	r.note("tune-batch: %d jobs, %d trials, %.3f ops by 1 closed-loop caller; an op is 1 GFLOP of Dense-layer training; p50/p99_us are job latency per op",
		len(ws)*5, trials, ops)
	return nil
}

// coreOptions mirrors how edgetune.Tune turns a job into core options,
// store and registries, so a traced job can run through core.Tune with
// an AfterRung hook and a counting filesystem. Its outcome is checked
// against the untraced public run.
func coreOptions(j edgetune.Job, fsys store.FS) (core.Options, *store.Durable, error) {
	w, err := workload.New(j.Workload, j.Seed^workloadSeedMix)
	if err != nil {
		return core.Options{}, nil, err
	}
	reg := obs.NewRegistry()
	ev := slo.NewEvaluator()
	dur, err := store.OpenDurable(store.DurableOptions{SnapshotPath: j.StorePath, FS: fsys, Metrics: reg, SLO: ev})
	if err != nil {
		return core.Options{}, nil, err
	}
	return core.Options{
		Workload:       w,
		Device:         device.I7(),
		BudgetKind:     string(j.Budget),
		SystemParams:   true,
		InferenceAware: !j.WithoutInference,
		InitialConfigs: j.Configs,
		Rungs:          j.Rungs,
		MaxBrackets:    j.Brackets,
		Seed:           j.Seed,
		Checkpoint:     j.Checkpoint,
		CheckpointPath: j.StorePath,
		Store:          dur.Store(),
		Metrics:        reg,
		SLO:            ev,
	}, dur, nil
}

// tracedJob is one job of the traced batch.
type tracedJob struct {
	job   edgetune.Job
	res   core.Result
	wall  time.Duration
	close time.Duration
	rungs []float64 // ms
}

// tracedBatch is the tune-batch traced run: batch 0 untraced through
// edgetune.Tune, then again through core.Tune with an AfterRung hook
// and a counting filesystem, then every trial of its ledger replayed
// layer by layer.
func (r *run) tracedBatch(golden map[string][][]string) error {
	g0 := readGC()
	plain, err := r.runBatch(golden, 0)
	if err != nil {
		return err
	}
	g1 := readGC()
	var ops float64
	for _, g := range plain.gflop {
		ops += g
	}
	r.setGoRuntime(g0, g1, ops)
	r.res.Attempted += int64(len(plain.digests))
	r.res.Failed += int64(plain.failed)

	jobs := batchJobs(r.seed, 0)
	path, err := batchStore(r, 0, jobs, "traced")
	if err != nil {
		return err
	}
	cfs := &countingFS{}
	var traced []tracedJob
	var wallT time.Duration
	var appends int64
	var closes []float64
	for i, j := range jobs {
		tj, err := r.traceJob(uint64(i+1), j, cfs)
		if err != nil {
			return fmt.Errorf("traced %s: %w", jobName(j), err)
		}
		traced = append(traced, tj)
		wallT += tj.wall
		appends += tj.res.Metrics.Counter("store.wal.appends")
		closes = append(closes, float64(tj.close.Nanoseconds())/1e6)
		same := digestOf(resultOutcome(tj.res)) == digestOf(plain.outcomes[i])
		r.check(same, "tune-batch: traced %s outcome differs from the untraced run", jobName(j))
		r.res.Attempted++
		if !same {
			r.res.Failed++
		}
	}
	r.set("trace.overhead_share", wallT.Seconds()/plain.wall().Seconds()-1, "ratio")
	r.note("tune-batch traced: untraced batch %v, traced batch %v", plain.wall(), wallT)

	fsyncs, fsyncDur, walBytes := cfs.snapshot()
	r.set("store.fsyncs_per_put", float64(fsyncs)/float64(appends), "count")
	r.set("store.fsync_us", float64(fsyncDur.Microseconds())/float64(fsyncs), "us")
	r.set("store.wal_bytes_per_put", float64(walBytes)/float64(appends), "B")
	r.set("store.drain_ms", median(closes), "ms")

	d, err := r.checkStore(path, len(jobs))
	if err != nil {
		return err
	}
	defer d.Abandon()
	return r.replayBatch(traced, d.Store())
}

// traceJob runs one job through core.Tune, timing each rung between
// AfterRung callbacks.
func (r *run) traceJob(traceID uint64, j edgetune.Job, cfs *countingFS) (tracedJob, error) {
	tj := tracedJob{job: j}
	opts, dur, err := coreOptions(j, cfs)
	if err != nil {
		return tj, err
	}
	jobID := r.spans.reserve()
	start := time.Now()
	last := start
	opts.AfterRung = func(bracket, rung int) error {
		now := time.Now()
		tj.rungs = append(tj.rungs, float64(now.Sub(last).Nanoseconds())/1e6)
		r.spans.add(traceID, jobID, fmt.Sprintf("core.rung b%d r%d", bracket, rung), last, now)
		last = now
		return nil
	}
	res, err := core.Tune(context.Background(), opts)
	tuned := time.Now()
	if err != nil {
		dur.Close()
		return tj, err
	}
	if err := dur.Close(); err != nil {
		return tj, fmt.Errorf("close durable store: %w", err)
	}
	end := time.Now()
	r.spans.add(traceID, jobID, "store.close", tuned, end)
	r.spans.addID(jobID, traceID, 0, "tune-batch/job "+jobName(j), start, end)
	tj.res = res
	tj.wall = end.Sub(start)
	tj.close = end.Sub(tuned)
	return tj, nil
}

// serverMetrics folds the inference-server metrics of the traced jobs'
// registries.
func serverMetrics(r *run, traced []tracedJob) {
	var p99 float64
	var coalesced, rejections int64
	var hits, lookups int
	for _, tj := range traced {
		if h, ok := tj.res.Metrics.Histogram("serving.admission.wait.requests"); ok && h.P99 > p99 {
			p99 = h.P99
		}
		coalesced += tj.res.Metrics.Counter("serving.coalesced")
		rs := tj.res.Resilience
		rejections += rs.Shed + rs.RateLimited + rs.Preempted
		if !tj.job.WithoutInference {
			hits += tj.res.CacheHits
			lookups += tj.res.CacheHits + tj.res.CacheMisses
		}
	}
	r.set("core.queued_ahead_p99", p99, "count")
	r.set("core.coalesced", float64(coalesced), "count")
	r.set("core.rejections", float64(rejections), "count")
	r.set("core.infer_hit_ratio", float64(hits)/float64(lookups), "ratio")
}
