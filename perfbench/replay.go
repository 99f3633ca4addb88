package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"edgetune/internal/core"
	"edgetune/internal/device"
	"edgetune/internal/nn"
	"edgetune/internal/perfmodel"
	"edgetune/internal/sim"
	"edgetune/internal/store"
	"edgetune/internal/tensor"
	"edgetune/internal/trial"
	"edgetune/internal/workload"
)

// Optimiser settings of trial.Runner (it tunes batch size, not the
// learning rate).
const (
	trialLR       = 0.018
	trialMomentum = 0.9
)

// denseShape is one Dense layer at one mini-batch size: x is rows×in,
// W is in×out. The forward and weight-gradient kernels skip zero
// inputs, so the shape also records what feeds the layer: "data:<ID>"
// for the workload's own samples, "relu" after a ReLU (about half
// zeros), "" for dense activations.
type denseShape struct {
	rows, in, out int
	input         string
}

// denseShapes lists the Dense layers of a workload's network at a batch
// size, including the two inside each residual block.
func denseShapes(w *workload.Workload, net *nn.Network, rows int) []denseShape {
	var out []denseShape
	input := "data:" + w.ID
	for _, l := range net.Layers() {
		switch l := l.(type) {
		case *nn.Dense:
			out = append(out, denseShape{rows, l.In(), l.OutDim(0), input})
			input = ""
		case *nn.Residual:
			d := l.OutDim(0)
			out = append(out, denseShape{rows, d, d, input}, denseShape{rows, d, d, "relu"})
			input = "" // the identity skip sums dense values back in
		case *nn.ReLU:
			input = "relu"
		case *nn.Dropout:
			// zeroes more of what the layer before produced
		default:
			input = ""
		}
	}
	return out
}

// replayBatch replays the traced batch's trial ledgers layer by layer:
// trial.Runner.Run per entry (its accuracy must be bit-equal to the
// ledger's), then Workload.Data, BuildModel and nn.Train at the same
// config, then the tensor kernels at every Dense shape the training
// touched, and the inference searches of every signature the jobs
// tuned.
func (r *run) replayBatch(traced []tracedJob, st *store.Store) error {
	ctx := context.Background()
	var runDur, trainDur, dataDur, buildDur, jobWall time.Duration
	var entries, matches, steps, dataCalls int
	var trainObjs, trainBytes uint64
	calls := map[denseShape]int{} // kernel calls of each kind, per shape
	var probe searchProbe
	for ti, tj := range traced {
		jobWall += tj.wall
		w, err := workload.New(tj.job.Workload, tj.job.Seed^workloadSeedMix)
		if err != nil {
			return err
		}
		runner, err := trial.NewRunner(w, perfmodel.GPUProfile{}, tj.job.Seed)
		if err != nil {
			return err
		}
		for _, rec := range tj.res.Trials {
			entries++
			t0 := time.Now()
			tr, err := runner.Run(ctx, trial.Request{Config: rec.Config, Alloc: rec.Alloc})
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("replay trial %s: %w", rec.Config.Key(), err)
			}
			runDur += t1.Sub(t0)
			trialID := r.spans.add(uint64(ti+1), 0, "trial.run "+rec.Config.Key(), t0, t1)
			if math.Float64bits(tr.Accuracy) == math.Float64bits(rec.Accuracy) {
				matches++
			}

			// The runner's own steps, one layer call at a time.
			rng := sim.NewRNG(tj.job.Seed ^ hashString(rec.Config.Key()))
			t0 = time.Now()
			net, err := w.BuildModel(rec.Config, rng)
			t1 = time.Now()
			if err != nil {
				return err
			}
			buildDur += t1.Sub(t0)
			r.spans.add(uint64(ti+1), trialID, "workload.build", t0, t1)
			t0 = time.Now()
			train, _, err := w.Data(rec.Config)
			t1 = time.Now()
			if err != nil {
				return err
			}
			dataDur += t1.Sub(t0)
			dataCalls++
			r.spans.add(uint64(ti+1), trialID, "workload.data", t0, t1)
			sub, err := train.Subset(rec.Alloc.DataFraction)
			if err != nil {
				return err
			}
			batch := min(int(rec.Config[workload.ParamTrainBatch]), sub.Len())
			var stats nn.TrainStats
			var terr error
			var dt time.Duration
			objs, bytes := allocCount(func() {
				t0 = time.Now()
				stats, terr = nn.Train(net, sub.X, sub.Labels, nn.TrainConfig{
					Epochs: rec.Alloc.Epochs, BatchSize: batch, LR: trialLR, Momentum: trialMomentum, Shuffle: true,
				}, rng)
				t1 = time.Now()
				dt = t1.Sub(t0)
			})
			if terr != nil {
				return terr
			}
			r.spans.add(uint64(ti+1), trialID, "nn.train", t0, t1)
			trainDur += dt
			trainObjs += objs
			trainBytes += bytes
			steps += stats.Steps
			for _, s := range denseShapes(w, net, batch) {
				calls[s] += stats.Steps
			}
		}
		if !tj.job.WithoutInference {
			if err := replaySearches(r, tj, w, st, &probe); err != nil {
				return err
			}
		}
	}
	r.set("trial.run_ms", float64(runDur.Nanoseconds())/1e6/float64(entries), "ms")
	r.set("trial.nn_share", trainDur.Seconds()/runDur.Seconds(), "ratio")
	r.set("trial.replay_match", float64(matches)/float64(entries), "ratio")
	r.check(matches == entries, "tune-batch: %d of %d replayed trial accuracies differ from the ledger", entries-matches, entries)
	r.set("workload.data_ms", float64(dataDur.Nanoseconds())/1e6/float64(dataCalls), "ms")
	r.set("workload.build_ms", float64(buildDur.Nanoseconds())/1e6/float64(entries), "ms")
	r.set("nn.step_us", float64(trainDur.Nanoseconds())/1e3/float64(steps), "us")
	r.set("nn.allocs_per_step", float64(trainObjs)/float64(steps), "count")
	r.set("nn.bytes_per_step", float64(trainBytes)/float64(steps), "B")
	r.set("core.tuner_self_share", 1-runDur.Seconds()/jobWall.Seconds(), "ratio")
	r.note("trial: %d ledger entries replayed (%d bit-equal), %d optimiser steps; job wall %v = trials %v + tuner self",
		entries, matches, steps, jobWall, runDur)

	var rungs []float64
	for _, tj := range traced {
		rungs = append(rungs, tj.rungs...)
	}
	r.set("core.rung_ms", mean(rungs), "ms")
	serverMetrics(r, traced)
	probe.report(r)

	kernel, err := kernelProbe(r, calls)
	if err != nil {
		return err
	}
	r.set("nn.kernel_share", kernel.Seconds()/trainDur.Seconds(), "ratio")

	var reqs []core.InferRequest
	for _, e := range st.Entries() {
		reqs = append(reqs, core.InferRequest{Signature: e.Signature})
	}
	r.set("store.get_ns", storeGetNS(st, reqs, device.I7().Profile.Name), "ns")
	return nil
}

// replaySearches replays the inference search of every signature a job
// tuned (its ledger's uncached requests) and checks the entry the
// durable store holds for it.
func replaySearches(r *run, tj tracedJob, w *workload.Workload, st *store.Store, probe *searchProbe) error {
	dev := device.I7()
	space, err := w.InferenceSpace(dev)
	if err != nil {
		return err
	}
	env := serveEnv{dev: dev, space: space, seed: tj.job.Seed}
	seen := map[string]bool{}
	for _, rec := range tj.res.Trials {
		sig := w.Signature(rec.Config)
		if rec.InferCached || seen[sig] {
			continue
		}
		seen[sig] = true
		flops, params, err := w.PaperCost(rec.Config)
		if err != nil {
			return err
		}
		want, err := oracleEntry(env, core.InferRequest{Signature: sig, FLOPsPerSample: flops, Params: params}, probe)
		if err != nil {
			return err
		}
		got, err := st.Get(sig, dev.Profile.Name)
		r.check(err == nil && sameEntry(got, want), "tune-batch: stored entry for %s differs from its replayed search", sig)
	}
	return nil
}

// kernelProbe times tensor.MatMul, MatMulAT and MatMulBT at every Dense
// shape the replayed training used, as Dense.Forward and
// Dense.Backward call them, and reports throughput weighted by how
// often training called each shape. It returns the kernel time the
// replayed training would have spent at those shapes.
func kernelProbe(r *run, calls map[denseShape]int) (time.Duration, error) {
	rng := sim.NewRNG(r.seed)
	var flops [3]float64
	var secs [3]float64
	var total time.Duration
	samples := map[string]*tensor.Matrix{} // training samples per workload
	for s, n := range calls {
		var x *tensor.Matrix
		switch {
		case strings.HasPrefix(s.input, "data:"):
			id := strings.TrimPrefix(s.input, "data:")
			if samples[id] == nil {
				wl, err := workload.New(id, r.seed)
				if err != nil {
					return 0, err
				}
				samples[id] = wl.Split.Train.X
			}
			var err error
			if x, err = tensor.FromSlice(s.rows, s.in, samples[id].Data[:s.rows*s.in]); err != nil {
				return 0, err
			}
		case s.input == "relu":
			x = tensor.Randn(s.rows, s.in, 1, rng)
			x.Apply(func(v float64) float64 { return max(v, 0) })
		default:
			x = tensor.Randn(s.rows, s.in, 1, rng)
		}
		w := tensor.Randn(s.in, s.out, 1, rng)
		g := tensor.Randn(s.rows, s.out, 1, rng)
		kernels := [3]func(){
			func() { tensor.MatMul(x, w) },   // forward: x W
			func() { tensor.MatMulAT(x, g) }, // weight gradient: xᵀ g
			func() { tensor.MatMulBT(g, w) }, // input gradient: g Wᵀ
		}
		f := 2 * float64(s.rows) * float64(s.in) * float64(s.out)
		for k, fn := range kernels {
			per := timePerCall(fn)
			flops[k] += float64(n) * f
			secs[k] += float64(n) * per.Seconds()
			total += time.Duration(n) * per
		}
	}
	r.set("tensor.matmul.gflops", flops[0]/secs[0]/1e9, "GFLOP/s")
	r.set("tensor.matmul_at.gflops", flops[1]/secs[1]/1e9, "GFLOP/s")
	r.set("tensor.matmul_bt.gflops", flops[2]/secs[2]/1e9, "GFLOP/s")

	x := tensor.Randn(32, 32, 1, rng)
	const n = 256
	objs, _ := allocCount(func() {
		for i := 0; i < n; i++ {
			tensor.MatMul(x, x)
		}
	})
	r.set("tensor.allocs_per_call", float64(objs)/n, "count")
	r.note("tensor: %d Dense shapes replayed", len(calls))
	return total, nil
}

// timePerCall times fn over enough calls to fill about a millisecond,
// after one warm-up call.
func timePerCall(fn func()) time.Duration {
	fn()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= time.Millisecond || n >= 1<<20 {
			return d / time.Duration(n)
		}
		n *= 4
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
