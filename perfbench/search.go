package main

import (
	"fmt"
	"time"

	"edgetune/internal/core"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

// inferTrials is the inference server's default search length.
const inferTrials = 24

// searchProbe accumulates the search and device layer timings of
// replayed inference searches.
type searchProbe struct {
	searches, trials int64 // a trial is one Sample, Estimate and Observe
	sampleDur        time.Duration
	sampleAllocs     uint64
	estimateDur      time.Duration
}

func (p *searchProbe) report(r *run) {
	r.set("search.sample_us", float64(p.sampleDur.Nanoseconds())/1e3/float64(p.trials), "us")
	r.set("search.allocs_per_sample", float64(p.sampleAllocs)/float64(p.trials), "count")
	r.set("device.estimate_ns", float64(p.estimateDur.Nanoseconds())/float64(p.trials), "ns")
	r.note("search/device: %d searches, %d trials replayed", p.searches, p.trials)
}

// oracleEntry is the benchmark's reference for the entry the inference
// server must reply for a request: the server's documented search — a
// BOHB sampler seeded from the server seed and the signature's FNV-1a
// hash, inferTrials Sample/Estimate/Observe steps, lowest per-sample
// latency wins — replayed directly on the search and device layers.
// With a probe, the replay is also timed layer by layer.
func oracleEntry(env serveEnv, req core.InferRequest, p *searchProbe) (store.Entry, error) {
	sampler, err := search.NewSampler(search.AlgoBOHB, env.space, env.seed^hashString(req.Signature))
	if err != nil {
		return store.Entry{}, err
	}
	obj := core.Objective{Metric: core.MetricRuntime}
	var best store.Entry
	bestScore := -1.0
	scores := make([]float64, 0, inferTrials)
	step := func(fn func()) time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	for i := 0; i < inferTrials; i++ {
		var cfg search.Config
		var r perfmodel.InferResult
		var eerr error
		sample := func() { cfg = sampler.Sample() }
		estimate := func() {
			r, eerr = env.dev.Estimate(perfmodel.InferSpec{
				FLOPsPerSample: req.FLOPsPerSample,
				Params:         req.Params,
				BatchSize:      int(cfg[workload.ParamInferBatch]),
				Cores:          int(cfg[workload.ParamCores]),
				FreqGHz:        cfg[workload.ParamFreq],
			})
		}
		var score float64
		observe := func() { sampler.Observe(search.Observation{Config: cfg, Score: score, Budget: 1}) }
		if p == nil {
			sample()
			estimate()
			if eerr == nil {
				score = obj.InferScore(r)
				observe()
			}
		} else {
			p.sampleDur += step(sample)
			p.estimateDur += step(estimate)
			if eerr == nil {
				score = obj.InferScore(r)
				p.sampleDur += step(observe)
			}
			p.trials++
		}
		if eerr != nil {
			return store.Entry{}, fmt.Errorf("estimate %s: %w", req.Signature, eerr)
		}
		scores = append(scores, score)
		if bestScore < 0 || score < bestScore {
			bestScore = score
			best = store.Entry{
				Signature:        req.Signature,
				Device:           env.dev.Profile.Name,
				Config:           cfg.Clone(),
				Throughput:       r.Throughput,
				EnergyPerSampleJ: r.EnergyPerSampleJ,
				LatencySeconds:   r.BatchLatency.Seconds(),
				Objective:        score,
			}
		}
	}
	best.TrialsRun = inferTrials
	if p != nil {
		p.searches++
		// Allocations are counted on a second, untimed replay of the
		// same Sample/Observe sequence, so the MemStats reads stay out
		// of the timings.
		s, err := search.NewSampler(search.AlgoBOHB, env.space, env.seed^hashString(req.Signature))
		if err != nil {
			return store.Entry{}, err
		}
		objs, _ := allocCount(func() {
			for _, score := range scores {
				s.Observe(search.Observation{Config: s.Sample(), Score: score, Budget: 1})
			}
		})
		p.sampleAllocs += objs
	}
	return best, nil
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
