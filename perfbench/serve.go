package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"edgetune/internal/core"
	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/obs"
	"edgetune/internal/obs/slo"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

const (
	// callers is the number of concurrent closed-loop tuners on
	// serve-cold; it matches the two cores of the reference machine.
	callers = 2
	// hotLifetime is the number of requests one serve-hot server serves
	// before it is drained and replaced, as the tuner replaces its server
	// per job (a server kept for the whole run would retain every SLO
	// event, 48 B per request). Each lifetime is one window of the
	// end-to-end metrics, so every window does the same work.
	hotLifetime = 1 << 18
	// hotWarmup is the number of untimed server lifetimes serve-hot runs
	// before timing.
	hotWarmup = 2
	// hotPopulation is the number of signatures serve-hot pre-warms.
	hotPopulation = 512
	// coldRound is the number of new signatures per serve-cold round.
	// Each round starts from an empty durable store, so the store (and
	// the snapshot rewritten at each compaction) stays the same size
	// however long the run lasts.
	coldRound = 1024
	// hotSpanEvery is how often the traced serve-hot run records a
	// span: one request in this many, to bound the in-memory span log.
	hotSpanEvery = 8
)

// serveEnv is what every serving workload shares: the edge device, the
// inference space, and the server seed derived from the run seed.
type serveEnv struct {
	dev   device.Device
	space *search.Space
	seed  uint64
}

func newServeEnv(seed uint64) (serveEnv, error) {
	dev := device.I7()
	w, err := workload.New("IC", seed)
	if err != nil {
		return serveEnv{}, err
	}
	space, err := w.InferenceSpace(dev)
	if err != nil {
		return serveEnv{}, err
	}
	return serveEnv{dev: dev, space: space, seed: seed ^ 0x5eed5eed}, nil
}

// genRequests draws n inference requests with distinct signatures. Each
// is a real architecture of one of the four workload families (its
// paper-scale FLOPs and parameters), tagged with a unique suffix so the
// store has never seen it.
func genRequests(seed uint64, tag string, n int) ([]core.InferRequest, error) {
	var fams []*workload.Workload
	for _, id := range workload.IDs() {
		w, err := workload.New(id, seed)
		if err != nil {
			return nil, err
		}
		fams = append(fams, w)
	}
	rng := sim.NewRNG(seed ^ hashString(tag))
	reqs := make([]core.InferRequest, n)
	for i := range reqs {
		w := fams[rng.Intn(len(fams))]
		cfg := search.Config{w.ModelParam.Name: w.ModelParam.Sample(rng)}
		flops, params, err := w.PaperCost(cfg)
		if err != nil {
			return nil, err
		}
		reqs[i] = core.InferRequest{
			Signature:      fmt.Sprintf("%s#%s%d", w.Signature(cfg), tag, i),
			FLOPsPerSample: flops,
			Params:         params,
		}
	}
	return reqs, nil
}

// server is one inference server over a durable store, as the tuner
// builds it, with its own metrics registry.
type server struct {
	dur *store.Durable
	srv *core.InferenceServer
	reg *obs.Registry
	rec *counters.Resilience
}

func (e serveEnv) open(path string, fsys store.FS) (*server, error) {
	reg := obs.NewRegistry()
	ev := slo.NewEvaluator()
	dur, err := store.OpenDurable(store.DurableOptions{SnapshotPath: path, FS: fsys, Metrics: reg, SLO: ev})
	if err != nil {
		return nil, err
	}
	s := &server{dur: dur, reg: reg, rec: counters.NewResilienceOn(reg)}
	if err := s.start(e, ev); err != nil {
		dur.Close()
		return nil, err
	}
	return s, nil
}

// start (re)starts the inference server on the open store.
func (s *server) start(e serveEnv, ev *slo.Evaluator) error {
	srv, err := core.NewInferenceServer(core.InferenceServerOptions{
		Device:   e.dev,
		Space:    e.space,
		Metric:   core.MetricRuntime,
		Store:    s.dur.Store(),
		Seed:     e.seed,
		Recorder: s.rec,
		SLO:      ev,
	})
	s.srv = srv
	return err
}

// close drains the server (every accepted result reaches the store)
// and closes the durable store.
func (s *server) close() error {
	if err := s.srv.Drain(context.Background()); err != nil {
		s.dur.Close()
		return fmt.Errorf("drain server: %w", err)
	}
	return s.dur.Close()
}

// sameEntry reports whether two store entries are identical.
func sameEntry(a, b store.Entry) bool {
	if a.Signature != b.Signature || a.Device != b.Device || a.Throughput != b.Throughput ||
		a.EnergyPerSampleJ != b.EnergyPerSampleJ || a.LatencySeconds != b.LatencySeconds ||
		a.Objective != b.Objective || a.TrialsRun != b.TrialsRun || len(a.Config) != len(b.Config) {
		return false
	}
	for k, v := range a.Config {
		if bv, ok := b.Config[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// ---- serve-hot ----------------------------------------------------------
//
// serve-hot has one caller. A cache hit runs wholly on its caller's
// goroutine, so two callers would keep both cores busy and leave the Go
// runtime and the rest of the host to preempt them mid-request; one
// caller leaves a core spare.

type hotState struct {
	env      serveEnv
	reqs     []core.InferRequest
	expected []store.Entry
	s        *server
	// last is the server of the latest finished round, kept for its
	// metrics registry.
	last server
	// lat holds the latencies of one server lifetime, allocated once
	// so that recording them touches no fresh memory.
	lat []float64
}

// hotSetup opens a durable store in a fresh directory, pre-warms it
// with the signature population through a warming server, and starts
// the server under test on it with a fresh registry, so its metrics
// cover only timed traffic.
func hotSetup(r *run, rep int) (*hotState, error) {
	env, err := newServeEnv(r.seed)
	if err != nil {
		return nil, err
	}
	reqs, err := genRequests(r.seed, "hot", hotPopulation)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.dir, fmt.Sprintf("hot-%d", rep), "hist.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	s, err := env.open(path, nil)
	if err != nil {
		return nil, err
	}
	expected := make([]store.Entry, len(reqs))
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += callers {
				out := <-s.srv.Submit(context.Background(), reqs[i])
				if out.Err != nil {
					errs[c] = fmt.Errorf("pre-warm %s: %w", reqs[i].Signature, out.Err)
					return
				}
				expected[i] = out.Entry
			}
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			s.dur.Close()
			return nil, e
		}
	}
	if err := s.restart(env); err != nil {
		s.dur.Close()
		return nil, err
	}
	return &hotState{env: env, reqs: reqs, expected: expected, s: s, lat: make([]float64, hotLifetime)}, nil
}

// hotRound is one timed server lifetime: the caller submits
// hotLifetime pre-warmed signatures from a seeded stream, each
// after the reply to the last, and keeps every request's latency.
// Replies are checked after the latency is taken. The server is then
// replaced, so its per-request state does not grow with the run.
func (h *hotState) hotRound(r *run, round int, spans *spanLog) (window, int64, error) {
	rng := sim.NewRNG(r.seed ^ uint64(round+1)*0x9e3779b97f4a7c15)
	ctx := context.Background()
	var bad int64
	cpu0 := cpuTime()
	start := time.Now()
	for i := range h.lat {
		k := rng.Intn(len(h.reqs))
		t0 := time.Now()
		out := <-h.s.srv.Submit(ctx, h.reqs[k])
		t1 := time.Now()
		h.lat[i] = float64(t1.Sub(t0))
		if i%hotSpanEvery == 0 {
			spans.add(uint64(round)<<32|uint64(i), 0, "serve-hot/request", t0, t1)
		}
		if out.Err != nil || !out.Cached || !sameEntry(out.Entry, h.expected[k]) {
			bad++
		}
	}
	w := window{ops: float64(len(h.lat)), wall: time.Since(start), cpu: cpuTime() - cpu0}
	w.setLatencies(h.lat)
	h.last = *h.s
	return w, bad, h.s.restart(h.env)
}

// hotLifetimes serves server lifetimes first, first+1, ... until their
// timed loops add up to dur, or exactly n of them when n > 0.
func (h *hotState) hotLifetimes(r *run, first int, dur time.Duration, n int, spans *spanLog) ([]window, int64, error) {
	var ws []window
	var bad int64
	var elapsed time.Duration
	for i := 0; n > 0 && i < n || n == 0 && elapsed < dur; i++ {
		w, b, err := h.hotRound(r, first+i, spans)
		if err != nil {
			return ws, bad, err
		}
		ws = append(ws, w)
		elapsed += w.wall
		bad += b
	}
	return ws, bad, nil
}

// restart drains the server and starts a new one on the same store,
// with a fresh metrics registry and SLO evaluator.
func (s *server) restart(e serveEnv) error {
	if err := s.srv.Drain(context.Background()); err != nil {
		return fmt.Errorf("drain server: %w", err)
	}
	s.reg = obs.NewRegistry()
	s.rec = counters.NewResilienceOn(s.reg)
	return s.start(e, slo.NewEvaluator())
}

func runServeHot(r *run) error {
	var prev *hotState
	h, err := setup(r, func(rep int) (*hotState, error) {
		if prev != nil {
			if err := prev.s.close(); err != nil {
				return nil, err
			}
		}
		h, err := hotSetup(r, rep)
		prev = h
		return h, err
	})
	if err != nil {
		if prev != nil {
			prev.s.close()
		}
		return err
	}
	_, bad, err := h.hotLifetimes(r, 0, 0, hotWarmup, nil)
	if err == nil {
		warm := int64(hotWarmup * hotLifetime)
		if r.trace {
			err = h.traced(r, warm, bad)
		} else {
			var ws []window
			var b int64
			ws, b, err = h.hotLifetimes(r, hotWarmup, time.Duration(r.seconds*float64(time.Second)), 0, nil)
			bad += b
			if err == nil {
				n := warm + int64(r.reportWindows(ws, "server lifetimes"))
				r.res.Attempted, r.res.Failed = n, bad
				r.check(bad == 0, "serve-hot: %d of %d replies were not the cached pre-warmed entry", bad, n)
				r.note("serve-hot: %d requests (%d untimed warm-up) by 1 closed-loop caller, %d per server lifetime", n, warm, hotLifetime)
			}
		}
	}
	if cerr := h.s.close(); err == nil {
		err = cerr
	}
	return err
}

// traced runs the per-layer probes for serve-hot: untraced server
// lifetimes, then the same lifetimes again with a span per sampled
// request. warm and bad are the warm-up's requests and bad replies.
func (h *hotState) traced(r *run, warm, bad int64) error {
	phase := time.Duration(min(r.seconds/2, 5) * float64(time.Second))
	g0 := readGC()
	plain, b, err := h.hotLifetimes(r, hotWarmup, phase, 0, nil)
	if err != nil {
		return err
	}
	g1 := readGC()
	bad += b
	traced, b, err := h.hotLifetimes(r, hotWarmup, 0, len(plain), r.spans)
	if err != nil {
		return err
	}
	bad += b
	var n, nT int64
	var wallU, wallT time.Duration
	for i := range plain {
		n += int64(plain[i].ops)
		wallU += plain[i].wall
		nT += int64(traced[i].ops)
		wallT += traced[i].wall
	}
	r.setGoRuntime(g0, g1, float64(n))
	r.res.Attempted, r.res.Failed = warm+n+nT, bad
	r.check(bad == 0, "serve-hot: %d replies were not the cached pre-warmed entry", bad)
	r.set("trace.overhead_share", (wallT.Seconds()/float64(nT))/(wallU.Seconds()/float64(n))-1, "ratio")
	r.note("serve-hot traced: untraced %d requests in %v, traced %d in %v", n, wallU, nT, wallT)
	r.set("store.get_ns", storeGetNS(h.s.dur.Store(), h.reqs, h.env.dev.Profile.Name), "ns")
	h.last.setServerMetrics(r)
	return nil
}

// storeGetNS times Store.Get over the given signatures, all present.
func storeGetNS(st *store.Store, reqs []core.InferRequest, dev string) float64 {
	const rounds = 200
	start := time.Now()
	for k := 0; k < rounds; k++ {
		for _, q := range reqs {
			st.Get(q.Signature, dev)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*len(reqs))
}

// setServerMetrics reads the inference server's metrics registry.
func (s *server) setServerMetrics(r *run) {
	snap := s.reg.Snapshot()
	p99 := 0.0
	if h, ok := snap.Histogram("serving.admission.wait.requests"); ok {
		p99 = h.P99
	}
	res := s.rec.Snapshot()
	r.set("core.queued_ahead_p99", p99, "count")
	r.set("core.coalesced", float64(snap.Counter("serving.coalesced")), "count")
	r.set("core.rejections", float64(res.Shed+res.RateLimited+res.Preempted), "count")
}

// ---- serve-cold ---------------------------------------------------------

type coldState struct {
	env  serveEnv
	reqs []core.InferRequest
	refs []store.Entry
}

// coldRoundStats is what one serve-cold round measured.
type coldRoundStats struct {
	window
	drain                 time.Duration
	bad                   int64
	appends               int64
	queuedAheadP99        float64
	coalesced, rejections int64
}

// round serves every request of the round once, by two closed-loop
// callers, on a fresh server over a fresh durable store. Timing ends
// when the server is drained and the store is closed. The store is
// then reopened and must recover every acknowledged signature.
func (c *coldState) round(r *run, idx int, fsys store.FS, spans *spanLog) (coldRoundStats, error) {
	var st coldRoundStats
	path := filepath.Join(r.dir, fmt.Sprintf("cold-%d", idx), "hist.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return st, err
	}
	defer os.RemoveAll(filepath.Dir(path))
	s, err := c.env.open(path, fsys)
	if err != nil {
		return st, err
	}
	roundID := spans.reserve()
	lat := make([][]float64, callers)
	last := make([]time.Time, callers)
	bads := make([]int64, callers)
	acked := make([]bool, len(c.reqs))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ctx := context.Background()
			buf := make([]float64, 0, len(c.reqs)/callers+1)
			for i := k; i < len(c.reqs); i += callers {
				t0 := time.Now()
				out := <-s.srv.Submit(ctx, c.reqs[i])
				t1 := time.Now()
				buf = append(buf, float64(t1.Sub(t0)))
				spans.add(uint64(idx)<<32|uint64(i), roundID, "serve-cold/request", t0, t1)
				last[k] = t1
				if out.Err != nil || out.Cached || !sameEntry(out.Entry, c.refs[i]) {
					bads[k]++
					continue
				}
				acked[i] = true
			}
			lat[k] = buf
		}(k)
	}
	wg.Wait()
	lastReply := last[0]
	for _, t := range last[1:] {
		if t.After(lastReply) {
			lastReply = t
		}
	}
	if err := s.srv.Drain(context.Background()); err != nil {
		s.dur.Close()
		return st, fmt.Errorf("drain server: %w", err)
	}
	drained := time.Now()
	if err := s.dur.Close(); err != nil {
		return st, fmt.Errorf("close durable store: %w", err)
	}
	end := time.Now()
	st.window = window{ops: float64(len(c.reqs)), wall: end.Sub(start), cpu: cpuTime() - cpu0}
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	st.setLatencies(all)
	st.drain = end.Sub(lastReply)
	spans.add(uint64(idx)<<32, roundID, "serve-cold/drain", lastReply, drained)
	spans.add(uint64(idx)<<32, roundID, "serve-cold/store-close", drained, end)
	spans.addID(roundID, uint64(idx)<<32, 0, "serve-cold/round", start, end)
	for _, b := range bads {
		st.bad += b
	}

	snap := s.reg.Snapshot()
	st.appends = snap.Counter("store.wal.appends")
	if h, ok := snap.Histogram("serving.admission.wait.requests"); ok {
		st.queuedAheadP99 = h.P99
	}
	st.coalesced = snap.Counter("serving.coalesced")
	rs := s.rec.Snapshot()
	st.rejections = rs.Shed + rs.RateLimited + rs.Preempted

	// Recovery check: every acknowledged signature is back, intact.
	re, err := store.OpenDurable(store.DurableOptions{SnapshotPath: path})
	if err != nil {
		return st, fmt.Errorf("reopen durable store: %w", err)
	}
	defer re.Abandon()
	rec := re.Recovery()
	r.check(rec.RecordsQuarantined == 0 && rec.TruncatedBytes == 0 && !rec.SnapshotQuarantined,
		"serve-cold round %d: reopen quarantined %d records, truncated %d bytes", idx, rec.RecordsQuarantined, rec.TruncatedBytes)
	lost := 0
	for i, ok := range acked {
		if !ok {
			continue
		}
		e, err := re.Store().Get(c.reqs[i].Signature, c.env.dev.Profile.Name)
		if err != nil || !sameEntry(e, c.refs[i]) {
			lost++
		}
	}
	r.check(lost == 0, "serve-cold round %d: %d acknowledged signatures not recovered intact", idx, lost)
	return st, nil
}

// coldRounds runs rounds until the deadline passes, or exactly limit
// rounds when limit > 0.
func (c *coldState) coldRounds(r *run, dur time.Duration, limit int, fsys store.FS, spans *spanLog, first int) ([]coldRoundStats, error) {
	var out []coldRoundStats
	var elapsed time.Duration
	for i := 0; ; i++ {
		if limit > 0 && i >= limit || limit == 0 && elapsed >= dur {
			break
		}
		st, err := c.round(r, first+i, fsys, spans)
		if err != nil {
			return nil, err
		}
		elapsed += st.wall
		out = append(out, st)
	}
	return out, nil
}

func runServeCold(r *run) error {
	var prevRefs []store.Entry
	c, err := setup(r, func(rep int) (*coldState, error) {
		env, err := newServeEnv(r.seed)
		if err != nil {
			return nil, err
		}
		reqs, err := genRequests(r.seed, "cold", coldRound)
		if err != nil {
			return nil, err
		}
		refs := make([]store.Entry, len(reqs))
		for i, q := range reqs {
			if refs[i], err = oracleEntry(env, q, nil); err != nil {
				return nil, err
			}
			if prevRefs != nil && !sameEntry(refs[i], prevRefs[i]) {
				r.check(false, "serve-cold: reference entry for %s differs between set-ups", q.Signature)
			}
		}
		prevRefs = refs
		return &coldState{env: env, reqs: reqs, refs: refs}, nil
	})
	if err != nil {
		return err
	}
	if r.trace {
		return c.traced(r)
	}
	rounds, err := c.coldRounds(r, time.Duration(r.seconds*float64(time.Second)), 0, nil, nil, 0)
	if err != nil {
		return err
	}
	var ws []window
	var bad int64
	for _, st := range rounds {
		ws = append(ws, st.window)
		bad += st.bad
	}
	n := int64(r.reportWindows(ws, "rounds"))
	r.res.Attempted, r.res.Failed = n, bad
	r.check(bad == 0, "serve-cold: %d of %d replies differ from their signature's reference entry", bad, n)
	r.note("serve-cold: %d rounds of %d new signatures by %d closed-loop callers, each timed to durability", len(rounds), len(c.reqs), callers)
	return nil
}

// traced runs the per-layer probes for serve-cold: untraced rounds,
// the same number of rounds traced through a counting filesystem, and
// a replay of each request's inference search.
func (c *coldState) traced(r *run) error {
	phase := time.Duration(min(r.seconds/2, 5) * float64(time.Second))
	g0 := readGC()
	plain, err := c.coldRounds(r, phase, 0, nil, nil, 0)
	if err != nil {
		return err
	}
	g1 := readGC()
	n := int64(len(plain) * len(c.reqs))
	r.setGoRuntime(g0, g1, float64(n))

	cfs := &countingFS{}
	traced, err := c.coldRounds(r, 0, len(plain), cfs, r.spans, len(plain))
	if err != nil {
		return err
	}
	var wallU, wallT time.Duration
	var bad, appends int64
	var drains []float64
	var qa float64
	var coalesced, rejections int64
	for _, st := range plain {
		wallU += st.wall
		bad += st.bad
	}
	for _, st := range traced {
		wallT += st.wall
		bad += st.bad
		appends += st.appends
		drains = append(drains, float64(st.drain)/1e6)
		qa = max(qa, st.queuedAheadP99)
		coalesced += st.coalesced
		rejections += st.rejections
	}
	r.res.Attempted, r.res.Failed = 2*n, bad
	r.check(bad == 0, "serve-cold: %d replies differ from their signature's reference entry", bad)
	r.set("trace.overhead_share", wallT.Seconds()/wallU.Seconds()-1, "ratio")
	fsyncs, fsyncDur, walBytes := cfs.snapshot()
	r.set("store.fsyncs_per_put", float64(fsyncs)/float64(appends), "count")
	r.set("store.fsync_us", float64(fsyncDur.Microseconds())/float64(fsyncs), "us")
	r.set("store.wal_bytes_per_put", float64(walBytes)/float64(appends), "B")
	r.set("store.drain_ms", median(drains), "ms")
	r.set("core.queued_ahead_p99", qa, "count")
	r.set("core.coalesced", float64(coalesced), "count")
	r.set("core.rejections", float64(rejections), "count")
	r.note("serve-cold traced: %d untraced rounds in %v, %d traced in %v; %d puts, %d fsyncs",
		len(plain), wallU, len(traced), wallT, appends, fsyncs)

	// Search and device: replay every request's inference search.
	var probe searchProbe
	for i, q := range c.reqs {
		e, err := oracleEntry(c.env, q, &probe)
		if err != nil {
			return err
		}
		r.check(sameEntry(e, c.refs[i]), "serve-cold: replayed search for %s differs", q.Signature)
	}
	probe.report(r)

	// store.get_ns on a store holding one round's entries.
	st := store.New()
	for _, e := range c.refs {
		if err := st.Put(e); err != nil {
			return err
		}
	}
	r.set("store.get_ns", storeGetNS(st, c.reqs, c.env.dev.Profile.Name), "ns")
	return nil
}
