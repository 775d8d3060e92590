package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"syscall"
	"time"

	"msc"
	"msc/internal/artifact"
	"msc/internal/cache"
	"msc/internal/progen"
	"msc/internal/simd"
)

// The service-mixed workload: an in-process CompileService over
// loopback HTTP, fronted by a fresh on-disk artifact cache, driven by
// one closed-loop client (it waits for each reply before sending the
// next request, so each request's CPU time is its own). About 88% of
// requests repeat one of 16 pool programs (cache hits: the pool is
// compiled in setup), about 10% carry a source no request has sent
// before (cold compile, encode, store), and 2% are capped compiles that
// must be refused with a meta-state budget error. About one pool
// request in nine also runs the program on 1,024 PEs (10% of all
// requests). Misses are kept to a tenth: half of a miss's CPU time is
// the file system's (create, write, two fsyncs, rename), and that half
// depends on what earlier runs left on the disk.
// DefaultConfig compresses, so hashgen builds no tables here: this is
// the workload on which the hash search is bypassed.
//
// A new source is one of 64 generated programs with a comment naming
// the request appended: a source the cache has never seen, so the whole
// cold path runs, for a program whose compile cost is one of 64 known
// ones. Both pools are the same for every seed; the seed draws the
// request order, which pool program each request carries, and the
// comments. Compile and run costs of generated programs are heavy
// tailed, and programs drawn from the seed made seeds cost different
// amounts.

const (
	svcPool     = 16
	svcMissPool = 64
	svcBatch    = 100 // requests per accounting batch in the traced run
	svcRunN     = 1024
	svcCapped   = 2048 // limits.max_states of a capped request
	shareCapped = 0.02
	shareHit    = 0.88
	shareRun    = 0.10 / shareHit // of pool requests
	// Every svcCalEvery requests the run takes a calibration sample,
	// and every svcDirectEvery requests it compiles the next miss-pool
	// program directly (see svcStats).
	svcCalEvery    = 200
	svcDirectEvery = 25
	// poolSeed and missSeed are the first progen seeds of the pools.
	poolSeed = 1_000_000
	missSeed = 2_000_000
)

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindCapped
)

type svcRequest struct {
	kind reqKind
	prog int // the pool or miss-pool program's index
	run  bool
	src  string
	ref  string // the program the reference compiles: src without the comment
	body []byte
}

// cappedConfigWire is a capped request's config: uncompressed, so that
// deepnest exceeds limits.max_states.
var cappedConfigWire = &msc.WireConfig{CSI: true, Hash: true}

// svcInputs generates request i of the stream for a seed: the same
// (seed, i) always gives the same request, whichever client sends it.
type svcInputs struct {
	seed   int64
	pool   []string
	miss   []string
	capped string
}

func newSvcInputs(o options) (*svcInputs, error) {
	capped, err := readInput(o, "testdata/robust/deepnest.mc")
	if err != nil {
		return nil, err
	}
	in := &svcInputs{seed: o.seed, capped: capped}
	for k := 0; k < svcPool; k++ {
		in.pool = append(in.pool, progen.Source(progen.Params{Seed: poolSeed + int64(k), Barriers: true}))
	}
	for k := 0; k < svcMissPool; k++ {
		in.miss = append(in.miss, progen.Source(progen.Params{Seed: missSeed + int64(k), Barriers: true}))
	}
	return in, nil
}

func (in *svcInputs) request(i int) svcRequest {
	r := rand.New(rand.NewSource(in.seed<<32 ^ int64(i)))
	u := r.Float64()
	req := msc.CompileRequest{}
	var kind reqKind
	prog := 0
	ref := ""
	switch {
	case u < shareCapped:
		kind = kindCapped
		// A distinct source per request keeps capped compiles out of
		// the single-flight table.
		req.Source = fmt.Sprintf("%s// request %d\n", in.capped, i)
		req.Config = cappedConfigWire
		req.Limits = &msc.WireLimits{MaxStates: svcCapped}
	case u < shareCapped+shareHit:
		kind = kindHit
		prog = r.Intn(svcPool)
		req.Source = in.pool[prog]
		ref = req.Source
	default:
		kind = kindMiss
		prog = r.Intn(svcMissPool)
		ref = in.miss[prog]
		req.Source = fmt.Sprintf("%s// request %d, seed %d\n", ref, i, in.seed)
	}
	run := kind == kindHit && r.Float64() < shareRun
	if run {
		req.Run = &msc.WireRun{Engine: "simd", N: svcRunN}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return svcRequest{kind: kind, prog: prog, run: run, src: req.Source, ref: ref, body: body}
}

// svcReply is what a client saw for one request.
type svcReply struct {
	req    svcRequest
	rt     time.Duration // wall round trip
	cpu    time.Duration // process CPU time over the round trip
	alloc  uint64        // heap bytes the process allocated meanwhile
	status int
	ok     *msc.CompileResponse
	err    *msc.ErrorBody

	good    bool   // the reply passed its check
	outcome string // the reply's stats.cache_outcome
	cycles  int64  // the reply's run.cycles
}

// service is one running CompileService with its cache and listener.
type service struct {
	dir    string
	cache  *msc.Cache
	svc    *msc.CompileService
	srv    *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

func startService(o options) (*service, error) {
	dir, err := workDir(o, "cache-")
	if err != nil {
		return nil, err
	}
	cc, err := msc.OpenCache(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{
		dir:   dir,
		cache: cc,
		svc:   msc.NewCompileService(msc.ServiceConfig{Cache: cc}),
		done:  make(chan struct{}),
		url:   "http://" + ln.Addr().String() + "/compile",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
	}
	s.srv = &http.Server{Handler: s.svc}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop shuts the server down, waits for it, and removes the cache.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
	s.svc.Close()
	s.client.CloseIdleConnections()
	removeAndSync(s.dir)
}

// removeAndSync deletes a cache directory and flushes the deletion to
// disk, so that a later run's fsyncs do not wait behind this run's
// file-system journal (and the discards a discard-mounted disk issues
// with it).
func removeAndSync(dir string) {
	os.RemoveAll(dir)
	syscall.Sync()
}

// send posts one request and decodes the reply.
func (s *service) send(req svcRequest) (svcReply, error) {
	rep := svcReply{req: req}
	a0 := heapAllocs()
	c0 := cpuNow()
	t0 := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return rep, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.cpu = cpuNow() - c0
	rep.alloc = heapAllocs() - a0
	rep.rt = time.Since(t0)
	if err != nil {
		return rep, err
	}
	rep.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		rep.ok = &msc.CompileResponse{}
		if err := json.Unmarshal(body, rep.ok); err != nil {
			return rep, err
		}
		if rep.ok.Stats != nil {
			rep.outcome = rep.ok.Stats.CacheOutcome
		}
		if rep.ok.Run != nil {
			rep.cycles = rep.ok.Run.Cycles
		}
		return rep, nil
	}
	rep.err = &msc.ErrorBody{}
	return rep, json.Unmarshal(body, rep.err)
}

// prewarm compiles and stores the pool.
func (s *service) prewarm(in *svcInputs) error {
	for k, src := range in.pool {
		body, err := json.Marshal(msc.CompileRequest{Source: src})
		if err != nil {
			return err
		}
		rep, err := s.send(svcRequest{kind: kindMiss, src: src, body: body})
		if err != nil {
			return fmt.Errorf("prewarm pool %d: %w", k, err)
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("prewarm pool %d: status %d", k, rep.status)
		}
	}
	return nil
}

// drive sends requests lo, lo+1, … one after the other up to hi (when
// hi > 0) or until the deadline passes, but at least one batch. It
// checks each reply with k as it arrives and hands it to sink.
func (s *service) drive(in *svcInputs, k *svcChecker, lo, hi int, deadline time.Time, sink func(svcReply)) error {
	for i := lo; ; i++ {
		if (hi > 0 && i >= hi) || (hi == 0 && i >= lo+svcBatch && !time.Now().Before(deadline)) {
			return nil
		}
		rep, err := s.send(in.request(i))
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		rep.good = k.check(rep)
		sink(rep)
	}
}

// svcChecker verifies replies against msc.Compile and RunSIMD called
// directly, once per distinct program.
type svcChecker struct {
	refs map[string]svcRef
}

func newSvcChecker() *svcChecker { return &svcChecker{refs: map[string]svcRef{}} }

// prepare computes the reference for every program the requests can
// carry, so that no reference is computed while requests are measured.
func (k *svcChecker) prepare(in *svcInputs) {
	for _, src := range in.pool {
		k.ref(src, false)
		k.ref(src, true)
	}
	for _, src := range in.miss {
		k.ref(src, false)
	}
}

type svcRef struct {
	metaStates int
	cycles     int64
	err        error
}

func (k *svcChecker) ref(src string, run bool) svcRef {
	key := fmt.Sprintf("%t|%s", run, src)
	if r, ok := k.refs[key]; ok {
		return r
	}
	var r svcRef
	c, err := msc.Compile(src, msc.DefaultConfig())
	if err != nil {
		r.err = err
	} else {
		r.metaStates = c.MetaStates()
		if run {
			res, err := c.RunSIMD(msc.RunConfig{N: svcRunN})
			if err != nil {
				r.err = err
			} else {
				r.cycles = res.Time
			}
		}
	}
	k.refs[key] = r
	return r
}

// check reports whether one reply is correct.
func (k *svcChecker) check(rep svcReply) bool {
	if rep.req.kind == kindCapped {
		if rep.status == http.StatusTooManyRequests && rep.err != nil &&
			rep.err.Error == "budget" && rep.err.Resource == "meta_states" {
			return true
		}
		fmt.Fprintf(os.Stderr, "perfbench: capped request: status %d %+v, want 429 budget/meta_states\n", rep.status, rep.err)
		return false
	}
	if rep.status != http.StatusOK {
		fmt.Fprintf(os.Stderr, "perfbench: request: status %d %+v\n", rep.status, rep.err)
		return false
	}
	want := k.ref(rep.req.ref, rep.req.run)
	if want.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reference: %v\n", want.err)
		return false
	}
	if rep.ok.MetaStates != want.metaStates {
		fmt.Fprintf(os.Stderr, "perfbench: meta_states %d, direct compile %d\n", rep.ok.MetaStates, want.metaStates)
		return false
	}
	if rep.req.run && (rep.ok.Run == nil || rep.ok.Run.Cycles != want.cycles) {
		fmt.Fprintf(os.Stderr, "perfbench: run %+v, direct RunSIMD %d cycles\n", rep.ok.Run, want.cycles)
		return false
	}
	return true
}

// outcomes counts the replies served from the cache and the replies
// whose compile was stored.
type outcomes struct{ hits, stored int }

func (c *outcomes) add(rep svcReply) {
	switch rep.outcome {
	case "hit":
		c.hits++
	case "stored":
		c.stored++
	}
}

// guard fails unless the measured replies include both cache hits and
// stored misses.
func (c outcomes) guard() error {
	if c.hits == 0 || c.stored == 0 {
		return fmt.Errorf("guard: service-mixed saw %d cache hits and %d stored misses, want both", c.hits, c.stored)
	}
	return nil
}

func runServiceMixed(o options) (*result, error) {
	var in *svcInputs
	var s *service
	setupS, teardown, err := timeSetups(5, func() (func(), error) {
		var err error
		if in, err = newSvcInputs(o); err != nil {
			return nil, err
		}
		if s, err = startService(o); err != nil {
			return nil, err
		}
		if err := s.prewarm(in); err != nil {
			s.stop()
			return nil, err
		}
		return s.stop, nil
	})
	if err != nil {
		return nil, err
	}
	if o.trace {
		teardown()
		return serviceMixedTraced(o, in)
	}

	k := newSvcChecker()
	k.prepare(in)
	st := newSvcStats(in)
	err = s.drive(in, k, 0, 0, time.Now().Add(time.Duration(o.seconds*float64(time.Second))), st.add)
	teardown()
	if err != nil {
		return nil, err
	}
	if err := st.guard(); err != nil {
		return nil, err
	}
	res := &result{Attempted: st.n, Failed: st.failed, Correct: st.failed == 0}
	res.Metrics = map[string]metric{
		"setup_s":         {setupS, "s"},
		"alloc_mb_per_op": {float64(st.alloc) / float64(st.n) / mb, "MB"},
		"max_rss_mb":      {maxRSSMB(), "MB"},
	}
	st.metrics(res.Metrics)
	return res, nil
}

// svcStats accumulates a plain service run. Requests fall into
// classes that do the same work: a hit on one pool program, with or
// without a run; a miss on one miss-pool program; a capped request.
// Each class is charged the svcQuantile of its requests' CPU times over
// the run, for the reason opStats gives; a low quantile rather than the
// least, because a request's CPU time reads short when another thread
// is still on a core as it ends. The metrics weigh each class by its
// number of requests.
//
// compile_cpu_geomean_ms leaves the file system out: between requests,
// the run compiles the miss-pool programs directly with msc.Compile, as
// a miss does before it encodes and stores, and charges each program
// its svcQuantile CPU time.
type svcStats struct {
	outcomes
	n, failed int64
	alloc     uint64
	classes   map[svcClass]*svcClassStats
	miss      []string    // the miss-pool programs
	direct    [][]float64 // CPU ms of each direct compile, per miss program
	cal       calibrator
}

func newSvcStats(in *svcInputs) *svcStats {
	return &svcStats{classes: map[svcClass]*svcClassStats{}, miss: in.miss, direct: make([][]float64, len(in.miss))}
}

const svcQuantile = 0.1

// svcClass identifies requests that do the same work.
type svcClass struct {
	kind reqKind
	prog int
	run  bool
}

type svcClassStats struct {
	cpus   []float64 // CPU ms of each request
	cycles int64     // run.cycles of a run class
	cost   float64   // the class's charge, set by metrics
}

func (st *svcStats) add(rep svcReply) {
	st.n++
	if !rep.good {
		st.failed++
	}
	st.alloc += rep.alloc
	st.outcomes.add(rep)
	if st.n%svcCalEvery == 0 {
		st.cal.sample()
	}
	if st.n%svcDirectEvery == 0 {
		i := int(st.n/svcDirectEvery) % len(st.miss)
		var err error
		d := cpuTime(func() { _, err = msc.Compile(st.miss[i], msc.DefaultConfig()) })
		if err != nil {
			st.failed++
		}
		st.direct[i] = append(st.direct[i], ms(d))
	}
	k := svcClass{rep.req.kind, rep.req.prog, rep.req.run}
	c := st.classes[k]
	if c == nil {
		c = &svcClassStats{}
		st.classes[k] = c
	}
	c.cpus = append(c.cpus, ms(rep.cpu))
	c.cycles = rep.cycles
}

func (st *svcStats) metrics(m map[string]metric) {
	var total, runMs float64
	var peSteps int64
	var costs []weighted
	for k, c := range st.classes {
		c.cost = quantile(c.cpus, svcQuantile)
		w := float64(len(c.cpus))
		total += w * c.cost
		costs = append(costs, weighted{c.cost, w})
		if k.run {
			runMs += w * c.cost
			peSteps += int64(len(c.cpus)) * svcRunN * c.cycles
		}
	}
	var budget float64
	if c := st.classes[svcClass{kind: kindCapped}]; c != nil {
		budget = c.cost
	}
	var direct []float64
	for _, cpus := range st.direct {
		if len(cpus) > 0 {
			direct = append(direct, quantile(cpus, svcQuantile))
		}
	}
	m["ops_per_cpu_s"] = metric{float64(st.n) / (total / 1e3), "1/s"}
	m["cpu_p50_ms"] = metric{weightedQuantile(costs, 0.5), "ms"}
	m["cpu_p99_ms"] = metric{weightedQuantile(costs, 0.99), "ms"}
	m["compile_cpu_geomean_ms"] = metric{geomean(direct), "ms"}
	m["budget_fail_cpu_ms"] = metric{budget, "ms"}
	m["pe_steps_per_cpu_s"] = metric{float64(peSteps) / (runMs / 1e3), "1/s"}
	scaleTimes(m, st.cal.scale())
}

// serviceLayers are the layers a request's replay calls, in path order.
var serviceLayers = append(append([]string(nil), compileLayers...),
	"artifact.encode", "cache.put", "cache.get", "artifact.decode", "simd.run")

// replayer calls, for each request the service answered, the layers the
// service's request path runs — cache lookup, decode or compile, encode
// and store, engine run — directly and inside spans, against a store of
// its own in the same state as the service's.
type replayer struct {
	store   *cache.Store
	dir     string
	encoded map[string][]byte // artifact bytes by cache object name
}

func newReplayer(o options) (*replayer, error) {
	dir, err := workDir(o, "replay-")
	if err != nil {
		return nil, err
	}
	st, err := cache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &replayer{store: st, dir: dir, encoded: map[string][]byte{}}, nil
}

func (rp *replayer) close() { removeAndSync(rp.dir) }

// replayKey is the replay store's content address for a request that
// compiles under DefaultConfig.
func replayKey(req svcRequest) artifact.Key {
	return artifact.Key{SourceHash: sha256.Sum256([]byte(req.src)), ConfigFP: sha256.Sum256([]byte("DefaultConfig"))}
}

// replay runs one request's layers inside op and returns the time they
// took.
func (rp *replayer) replay(o *op, r *round, req svcRequest) (time.Duration, error) {
	var total time.Duration
	if req.kind == kindCapped {
		conf := msc.Config{CSI: true, Hash: true, Limits: msc.Limits{MaxStates: svcCapped}}
		t0 := time.Now()
		_, err := tracedCompile(o, req.src, conf)
		return time.Since(t0), checkBudget(err)
	}
	key := replayKey(req)
	name := cache.Name(key)
	var art *artifact.Artifact
	var err error
	total += o.layer("cache.get", "", func() { art, err = rp.store.Get(key) })
	if err != nil {
		return total, err
	}
	r.counts["cache.lookups"]++
	var prog *simd.Program
	if art != nil {
		r.counts["cache.hits"]++
		data := rp.encoded[name]
		var dec *artifact.Artifact
		d := o.layer("artifact.decode", "", func() { dec, _, err = artifact.Decode(data) })
		o.credit("cache.get", d)
		if err != nil {
			return total, err
		}
		o.count("artifact.bytes", int64(len(data)))
		prog = dec.Program
	} else {
		t0 := time.Now()
		c, err := tracedCompile(o, req.src, msc.DefaultConfig())
		total += time.Since(t0)
		if err != nil {
			return total, err
		}
		a := &artifact.Artifact{Graph: c.Graph, Automaton: c.Automaton, Program: c.Program}
		var data []byte
		d := o.layer("artifact.encode", "", func() { data, err = artifact.Encode(a, key) })
		total += d
		if err != nil {
			return total, err
		}
		rp.encoded[name] = data
		o.count("artifact.bytes", int64(len(data)))
		total += o.layer("cache.put", "", func() { err = rp.store.Put(key, a) }) - d
		o.credit("cache.put", d)
		if err != nil {
			return total, err
		}
		prog = c.Program
	}
	if req.run {
		t0 := time.Now()
		res, err := simd.Run(prog, simd.Config{N: svcRunN})
		d := time.Since(t0)
		o.span("simd.run", t0, d, 0)
		total += d
		if err != nil {
			return total, err
		}
		r.engine(d, res, svcRunN)
	}
	return total, nil
}

// serviceMixedTraced runs the untraced half (the service alone), then
// the traced half: batches of svcBatch requests through the service,
// each batch followed by its replay.
func serviceMixedTraced(o options, in *svcInputs) (*result, error) {
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	k := newSvcChecker()
	k.prepare(in)
	s, err := startService(o)
	if err != nil {
		return nil, err
	}
	if err := s.prewarm(in); err != nil {
		s.stop()
		return nil, err
	}
	// The untraced figure is the mean round trip per batch of svcBatch.
	var untraced []float64
	var n, ns int64
	err = s.drive(in, k, 0, 0, time.Now().Add(half), func(rep svcReply) {
		n++
		ns += rep.rt.Nanoseconds()
		if n%svcBatch == 0 {
			untraced = append(untraced, float64(ns)/svcBatch/1e6)
			ns = 0
		}
	})
	s.stop()
	if err != nil {
		return nil, err
	}
	if len(untraced) == 0 {
		return nil, errors.New("untraced half finished no batch")
	}

	if s, err = startService(o); err != nil {
		return nil, err
	}
	defer s.stop()
	rp, err := newReplayer(o)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	if err := s.prewarm(in); err != nil {
		return nil, err
	}
	tr := newTracer()
	warm := newRound()
	for k, src := range in.pool {
		op := tr.beginOp(warm, fmt.Sprintf("prewarm %d", k))
		_, err := rp.replay(op, warm, svcRequest{kind: kindMiss, src: src})
		op.end()
		if err != nil {
			return nil, fmt.Errorf("replay prewarm: %w", err)
		}
	}

	res := &result{}
	var rounds []*round
	var traced, overhead []float64
	var seen outcomes
	deadline := time.Now().Add(half)
	for b := 0; b == 0 || time.Now().Before(deadline); b++ {
		var batch []svcReply
		err := s.drive(in, k, b*svcBatch, (b+1)*svcBatch, time.Time{}, func(rep svcReply) {
			seen.add(rep)
			batch = append(batch, rep)
		})
		if err != nil {
			return nil, err
		}
		r := newRound()
		rounds = append(rounds, r)
		var ns int64
		for i, rep := range batch {
			res.Attempted++
			if !rep.good {
				res.Failed++
			}
			ns += rep.rt.Nanoseconds()
			op := tr.beginOp(r, fmt.Sprintf("request %d", b*svcBatch+i))
			d, err := rp.replay(op, r, rep.req)
			op.end()
			if err != nil {
				return nil, fmt.Errorf("replay request %d: %w", b*svcBatch+i, err)
			}
			overhead = append(overhead, ms(rep.rt-d))
		}
		traced = append(traced, float64(ns)/float64(len(batch))/1e6)
	}
	if err := seen.guard(); err != nil {
		return nil, err
	}
	if err := tr.write(o.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.Correct = res.Failed == 0
	res.Metrics = layerReport(rounds, untraced, traced, serviceLayers)
	addEngineMetrics(res.Metrics, rounds)
	var hits, lookups int64
	for _, r := range rounds {
		hits += r.counts["cache.hits"]
		lookups += r.counts["cache.lookups"]
	}
	res.Metrics["cache.hit_ratio"] = metric{float64(hits) / float64(lookups), "ratio"}
	res.Metrics["service.overhead_ms"] = metric{median(overhead), "ms"}
	fillLayerMetrics(res.Metrics)
	return res, nil
}
