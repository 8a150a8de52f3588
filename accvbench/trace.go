package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/bytecode"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/device"
	"accv/internal/ffront"
	"accv/internal/interp"
	"accv/internal/report"
	"accv/internal/service"
	"accv/internal/store"
	"accv/internal/sweep"
	"accv/internal/vendors"
)

// The traced run replays a workload's inputs in this process with one
// worker, calling each layer's public function directly and recording
// one span per call with its parent. Spans stay in memory and are
// reduced to per-layer self times when the run ends.

// span is one call into a layer.
type span struct {
	name, phase string
	parent      int
	start, end  time.Duration
}

// tracer records spans. A nil *tracer records nothing, which is how the
// untraced replay runs the very same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	phase string
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span and returns the span's duration (0 untraced).
// Calls nest through a stack: the replay is sequential, and the layer
// callbacks core invokes from its single pool worker run while the
// replay goroutine waits on that worker.
func (t *tracer) do(name string, f func()) time.Duration {
	if t == nil {
		f()
		return 0
	}
	t.mu.Lock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, phase: t.phase, parent: parent, start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	t.mu.Unlock()

	f()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[id].end - t.spans[id].start
}

func (t *tracer) setPhase(p string) {
	if t != nil {
		t.phase = p
	}
}

// selfTimes reduces the spans to self time (duration minus the time
// covered by child spans) per layer, overall and per phase.
func (t *tracer) selfTimes() (total map[string]time.Duration, byPhase map[string]map[string]time.Duration) {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	total = map[string]time.Duration{}
	byPhase = map[string]map[string]time.Duration{}
	for i, s := range t.spans {
		total[s.name] += self[i]
		if byPhase[s.phase] == nil {
			byPhase[s.phase] = map[string]time.Duration{}
		}
		byPhase[s.phase][s.name] += self[i]
	}
	return total, byPhase
}

// counts are the exact counters a replay collects, traced or not.
type counts struct {
	parseBytes                                               [2]int64 // by ast.Lang
	procsLowered, procsDeclined                              int64
	batchNests, batchDeclined                                int64
	vmRuns, vmOps, spmdRuns, spmdOps                         int64
	kernels, batched, fallback                               int64
	passedKernels                                            int64 // kernels of functional VM runs that passed
	bytesIn, bytesOut, presentHits, presentMisses            int64
	queueWaits, simCycles                                    int64
	fpCalls, memoHits, memoMisses                            int64
	getCalls, getHits, putCalls, corrupt                     int64
	rejected                                                 int64
	svcCacheHits, svcCacheMisses, svcMemoHits, svcMemoMisses int64
	engineDiffs                                              int
	tplInterp                                                map[string]time.Duration
	svcLat                                                   map[string][]time.Duration
	outputs                                                  []string // every verdict output, in replay order
	log                                                      opLog
}

// compilerCounts are the counts two replays of the same inputs must
// agree on exactly. Kernels count only from functional runs that
// passed, which the golden pins: a run that fails can stop launching
// kernels at a point that moves with scheduling, and whether a racing
// cross run completes does too (update_async's cross variant faults with
// 'data "a" is not present' on some runs and not on others under load).
func (c *counts) compilerCounts() [5]int64 {
	return [5]int64{c.procsLowered, c.procsDeclined, c.batchNests, c.batchDeclined, c.passedKernels}
}

// replayer replays inputs through the layers.
type replayer struct {
	ctx context.Context
	tr  *tracer
	c   *counts
	g   *golden
}

// check records one replayed output against its golden bytes.
func (r *replayer) check(what string, got, want []byte) {
	r.c.log.attempted++
	r.c.outputs = append(r.c.outputs, what+"\n"+verdictsOnly(got))
	n, others := compareRows(got, want)
	r.c.log.otherDiffs += others
	if n > 0 {
		r.c.log.mismatches++
		r.c.log.fail("%s: %d verdict rows differ from the golden; first: %s", what, n, firstDiff(got, want))
	}
}

// Core's run-shaping defaults (core.Config.withDefaults): the suite the
// CLI runs uses them unchanged.
const (
	iterations = 3
	maxOps     = 16_000_000
	runTimeout = 5 * time.Second
	devices    = 2
)

// suite replays `accval run -lang both -format csv` for each release,
// restricted to one family when family is set.
func (r *replayer) suite(rels []release, family string) error {
	for _, rel := range rels {
		tc, err := vendors.New(rel.Compiler, rel.Version)
		if err != nil {
			return err
		}
		var out, want bytes.Buffer
		for _, lang := range langs {
			sr := &core.SuiteResult{Compiler: tc.Name(), Version: tc.Version(), Lang: lang}
			for _, tpl := range sweep.TemplatesFor(family, lang) {
				sr.Results = append(sr.Results, r.test(tc, tpl))
			}
			r.tr.do("report.write", func() { err = report.Write(&out, sr, report.CSV) })
			if err != nil {
				return err
			}
			want.Write(r.g.familyCSV(rel, lang, family))
		}
		r.check("suite "+rel.key()+" "+family, out.Bytes(), want.Bytes())
	}
	return nil
}

// test replays one template the way core.RunTest does: generate, parse
// and compile the functional variant, vet it, run it M times and, only
// if it passed, compile and run the cross variant M times. Every run is
// executed by the VM (the default engine, whose verdict counts) and
// again by the SPMD engine on the same executable and seed.
func (r *replayer) test(tc compiler.Toolchain, tpl *core.Template) core.TestResult {
	res := core.TestResult{Name: tpl.Name, Lang: tpl.Lang, Family: tpl.Family, Description: tpl.Description}
	ctx, cancel := context.WithTimeout(r.ctx, runTimeout*time.Duration(2*iterations+1))
	defer cancel()
	var functional, cross string
	var hasCross bool
	var err error
	r.tr.do("core.generate", func() { functional, cross, hasCross, err = tpl.Generate() })
	if err != nil {
		res.Outcome, res.Detail = core.FailCompile, "template expansion: "+err.Error()
		return res
	}
	res.Functional, res.Cross, res.HasCross = functional, cross, hasCross
	exe, diags, err := r.compile(tc, tpl.Lang, functional)
	for _, d := range diags {
		if d.BugID != "" {
			res.BugIDs = append(res.BugIDs, d.BugID)
		}
	}
	if err != nil {
		res.Outcome, res.Detail = core.FailCompile, err.Error()
		return res
	}
	res.Findings = exe.Findings
	for _, f := range exe.Findings {
		if f.Sev == analysis.Error {
			res.Outcome, res.Detail = core.VetFail, "accvet: "+f.String()
			return res
		}
	}
	for it := 0; it < iterations; it++ {
		res.FuncRuns++
		out, detail, kernels := r.run(ctx, tc, exe, tpl, int64(it))
		if out == core.Pass {
			r.c.passedKernels += kernels
		} else {
			res.FuncFails++
			if res.Outcome == core.Pass || res.Outcome == core.FailWrongResult {
				res.Outcome, res.Detail = out, detail
			}
		}
	}
	if res.Outcome.Failed() || !hasCross {
		return res
	}
	cexe, _, err := r.compile(tc, tpl.Lang, cross)
	if err != nil {
		res.Cert = core.NewCertainty(iterations, iterations)
		return res
	}
	fails := 0
	for it := 0; it < iterations; it++ {
		if out, _, _ := r.run(ctx, tc, cexe, tpl, int64(1000+it)); out != core.Pass {
			fails++
		}
	}
	res.Cert = core.NewCertainty(fails, iterations)
	res.Inconclusive = !res.Cert.Conclusive()
	return res
}

// compile parses and compiles one source, then times the compiler's
// public parts — accvet analysis, the lane-safety oracle and bytecode
// lowering — separately on the same program.
func (r *replayer) compile(tc compiler.Toolchain, lang ast.Lang, src string) (*compiler.Executable, []compiler.Diagnostic, error) {
	var prog *ast.Program
	var err error
	if lang == ast.LangFortran {
		r.tr.do("ffront.parse", func() { prog, err = ffront.Parse(src) })
	} else {
		r.tr.do("cfront.parse", func() { prog, err = cfront.Parse(src) })
	}
	r.c.parseBytes[lang] += int64(len(src))
	if err != nil {
		return nil, nil, fmt.Errorf("frontend: %w", err)
	}
	exe, diags, err := timedToolchain{tc, r}.Compile(prog)
	if err != nil {
		return nil, diags, err
	}
	r.tr.do("analysis.analyze", func() { analysis.Analyze(prog, analysis.Options{}) })
	r.tr.do("analysis.lanesafety", func() { analysis.AnalyzeLaneSafety(prog) })
	r.tr.do("bytecode.lower", func() { bytecode.LowerProgram(prog) })
	return exe, diags, nil
}

// run executes one variant once under the VM and once under SPMD,
// classifying the VM run the way core does. Runs whose SPMD outcome
// differs are counted, not failed: one run's outcome is not a verdict,
// and how a run of a miscompiled or deliberately broken (cross) variant
// fails can depend on scheduling — the lane that faults first, say.
// It also returns the VM run's kernel count.
func (r *replayer) run(ctx context.Context, tc compiler.Toolchain, exe *compiler.Executable, tpl *core.Template, seed int64) (core.Outcome, string, int64) {
	out, detail, kernels := r.runEngine(ctx, tc, exe, tpl, seed, interp.EngineVM)
	if sOut, sDetail, _ := r.runEngine(ctx, tc, exe, tpl, seed, interp.EngineSPMD); sOut != out || sDetail != detail {
		r.c.engineDiffs++
	}
	return out, detail, kernels
}

func (r *replayer) runEngine(ctx context.Context, tc compiler.Toolchain, exe *compiler.Executable, tpl *core.Template, seed int64, engine interp.Engine) (core.Outcome, string, int64) {
	var plat *device.Platform
	r.tr.do("device.platform", func() { plat = device.NewPlatform(tc.DeviceConfig(), devices) })
	var res interp.Result
	d := r.tr.do("interp."+engine.String(), func() {
		res = interp.Run(exe, interp.RunConfig{Platform: plat, Ctx: ctx, MaxOps: maxOps,
			Timeout: runTimeout, Seed: seed, Env: tpl.Env, Engine: engine})
	})
	c := r.c
	if engine == interp.EngineSPMD {
		c.spmdRuns++
		c.spmdOps += res.Ops
		c.batched += res.SpmdBatchedNests
		for _, n := range res.SpmdFallbacks {
			c.fallback += n
		}
	} else {
		c.vmRuns++
		c.vmOps += res.Ops
		c.kernels += res.Kernels
		c.bytesIn += res.BytesIn
		c.bytesOut += res.BytesOut
		c.presentHits += res.PresentHits
		c.presentMisses += res.PresentMisses
		c.queueWaits += res.QueueWaits
		c.simCycles += res.SimCycles
		c.tplInterp[tpl.ID()] += d
	}
	switch {
	case res.Err == interp.ErrCanceled:
		return core.Canceled, res.Err.Error(), res.Kernels
	case res.Err == interp.ErrBudget || res.Err == interp.ErrDeadline:
		return core.FailTimeout, res.Err.Error(), res.Kernels
	case res.Err != nil:
		return core.FailCrash, res.Err.Error(), res.Kernels
	case res.Exit != 1:
		return core.FailWrongResult, fmt.Sprintf("verification returned %d (want 1)", res.Exit), res.Kernels
	}
	return core.Pass, "", res.Kernels
}

// timedToolchain times Toolchain.Compile, also when core calls it.
type timedToolchain struct {
	compiler.Toolchain
	r *replayer
}

func (t timedToolchain) Compile(prog *ast.Program) (exe *compiler.Executable, diags []compiler.Diagnostic, err error) {
	t.r.tr.do("compiler.compile", func() { exe, diags, err = t.Toolchain.Compile(prog) })
	if exe != nil {
		c := t.r.c
		c.procsLowered += int64(exe.Code.Lowered)
		c.procsDeclined += int64(exe.Code.Declined)
		c.batchNests += int64(len(exe.Batch))
		c.batchDeclined += int64(len(exe.BatchDecline))
	}
	return exe, diags, err
}

// timedStore is a core.ResultStore decorator timing the disk store.
type timedStore struct {
	st *store.Store
	r  *replayer
}

func (s timedStore) Load(fp string) (res core.TestResult, ok bool) {
	s.r.tr.do("store.get", func() { res, ok = s.st.Load(fp) })
	s.r.c.getCalls++
	if ok {
		s.r.c.getHits++
	}
	return res, ok
}

func (s timedStore) Save(fp string, res core.TestResult) {
	s.r.tr.do("store.put", func() { s.st.Save(fp, res) })
	s.r.c.putCalls++
}

// sweep replays `accval sweep -lang both -store dir` for each vendor,
// restricted to one family when family is set: one memo table and
// compile cache per vendor sweep, as in one accval process, with the
// cells run in order by one worker. warm requires that nothing
// executes; cold requires that nothing comes from the store.
func (r *replayer) sweep(vendorList []string, family, dir string, warm bool) error {
	for _, v := range vendorList {
		var st *store.Store
		var err error
		r.tr.do("store.open", func() { st, err = store.Open(dir, store.Options{}) })
		if err != nil {
			return err
		}
		memo, cache := core.NewMemoTable(), compiler.NewCache()
		base := core.Config{Workers: 1}
		fps := sweep.NewFingerprinter(sweep.ConfigSalt(base.WithDefaults()))
		for _, ver := range vendors.All()[v] {
			for _, lang := range langs {
				tc, err := vendors.New(v, ver)
				if err != nil {
					return err
				}
				fp := fps.For(tc)
				cfg := base
				cfg.Toolchain, cfg.Cache, cfg.Memo = timedToolchain{tc, r}, cache, memo
				cfg.Store = timedStore{st, r}
				cfg.Fingerprint = func(tpl *core.Template) (s string, ok bool) {
					r.tr.do("sweep.fingerprint", func() { s, ok = fp(tpl) })
					r.c.fpCalls++
					return s, ok
				}
				var sr *core.SuiteResult
				r.tr.do("core.suite", func() { sr, err = core.RunSuiteContext(r.ctx, cfg, sweep.TemplatesFor(family, lang)) })
				if err != nil {
					return err
				}
				r.c.memoHits += int64(sr.MemoHits)
				r.c.memoMisses += int64(sr.MemoMisses)
				what := fmt.Sprintf("sweep %s %s %s %s", v, ver, lang, family)
				switch {
				case warm && sr.MemoMisses != 0:
					r.c.log.fail("%s: warm sweep executed %d tests", what, sr.MemoMisses)
				case !warm && sr.StoreHits != 0:
					r.c.log.fail("%s: cold sweep had %d disk hits", what, sr.StoreHits)
				}
				var out bytes.Buffer
				if err := report.Write(&out, sr, report.CSV); err != nil {
					return err
				}
				r.check(what, out.Bytes(), r.g.familyCSV(release{v, ver}, lang, family))
			}
		}
		_, _, _, corrupt := st.Stats()
		r.c.corrupt += corrupt
	}
	return nil
}

// prepared is a service request with its body built ahead of the
// replay, so JSON encoding of sources is not timed.
type prepared struct {
	req  svcReq
	body []byte
}

// serviceRequests deals the first n requests of the seeded mix. Every
// block of 50 holds every endpoint, so each endpoint has a latency.
func serviceRequests(seed int64, g *golden, n int) ([]prepared, error) {
	m := newMix(seed, g)
	out := make([]prepared, n)
	for i := range out {
		q := m.next()
		b, err := q.body()
		if err != nil {
			return nil, err
		}
		out[i] = prepared{q, b}
	}
	return out, nil
}

// service replays the requests through a fresh in-process accvd handler
// with one worker, then reads the shared-cache counters from /metrics.
func (r *replayer) service(reqs []prepared) error {
	srv, err := service.New(service.Config{DefaultParallelism: 1})
	if err != nil {
		return err
	}
	h := srv.Handler()
	for _, p := range reqs {
		req := httptest.NewRequest(http.MethodPost, "/v1/"+p.req.Endpoint, bytes.NewReader(p.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Accvd-Client", "accvbench-replay")
		rec := httptest.NewRecorder()
		d := r.tr.do("service."+p.req.Endpoint, func() { h.ServeHTTP(rec, req) })
		r.c.svcLat[p.req.Endpoint] = append(r.c.svcLat[p.req.Endpoint], d)
		if rec.Code == http.StatusTooManyRequests {
			r.c.rejected++
		}
		r.c.log.attempted++
		_, mismatch, err := checkResponse(r.g, p.req, rec.Code, rec.Body.Bytes())
		if mismatch {
			r.c.log.mismatches++
		}
		if err != nil {
			r.c.log.fail("replay %v", err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := promCounters(rec.Body.Bytes())
	r.c.svcCacheHits, r.c.svcCacheMisses = m["accv_compile_cache_hits_total"], m["accv_compile_cache_misses_total"]
	r.c.svcMemoHits, r.c.svcMemoMisses = m["accv_sweep_memo_hits_total"], m["accv_sweep_memo_misses_total"]
	return nil
}

// promCounters sums Prometheus text-format samples by metric name.
func promCounters(b []byte) map[string]int64 {
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] += int64(v)
		}
	}
	return out
}

// scope is how much of each workload's inputs a traced run replays: the
// named workload's in full (one whole cycle), every other workload as a
// one-family slice, so each layer metric is measured on every run.
type scope struct {
	suiteRels   []release
	suiteFamily string
	sweepVends  []string // sweep-cold
	sweepFamily string
	warmVends   []string // sweep-warm
	warmFamily  string
	svcN        int
}

const (
	svcReplayFull  = 300
	svcReplaySlice = 50
)

func traceScope(workload string, seed int64) scope {
	rng := rand.New(rand.NewSource(seed))
	fams := families(ast.LangC)
	fam := fams[rng.Intn(len(fams))]
	vendor := sweepVendors[rng.Intn(len(sweepVendors))]
	s := scope{suiteRels: []release{{"reference", "1.0"}}, suiteFamily: fam,
		sweepVends: []string{vendor}, sweepFamily: fam,
		warmVends: []string{vendor}, warmFamily: fam, svcN: svcReplaySlice}
	if workload == wService {
		s.svcN = svcReplayFull
		return s
	}
	cycle := cliCycles(workload, seed)[0]
	if workload == wSuite {
		s.suiteRels, s.suiteFamily = nil, ""
		for _, op := range cycle {
			s.suiteRels = append(s.suiteRels, op.Release)
		}
		return s
	}
	var vends []string
	for _, op := range cycle {
		vends = append(vends, op.Vendor)
	}
	if workload == wCold {
		s.sweepVends, s.sweepFamily = vends, ""
	} else {
		s.warmVends, s.warmFamily = vends, ""
	}
	return s
}

// replayPass runs every phase of the scope once.
func replayPass(ctx context.Context, g *golden, tr *tracer, sc scope, reqs []prepared, coldDir, warmDir string) (*counts, time.Duration, error) {
	c := &counts{tplInterp: map[string]time.Duration{}, svcLat: map[string][]time.Duration{}}
	r := &replayer{ctx: ctx, tr: tr, c: c, g: g}
	start := time.Now()
	tr.setPhase(wSuite)
	if err := r.suite(sc.suiteRels, sc.suiteFamily); err != nil {
		return nil, 0, err
	}
	tr.setPhase(wCold)
	for _, v := range sc.sweepVends { // an empty store per vendor, as sweep-cold runs them
		if err := r.sweep([]string{v}, sc.sweepFamily, filepath.Join(coldDir, v), false); err != nil {
			return nil, 0, err
		}
	}
	tr.setPhase(wWarm)
	if err := r.sweep(sc.warmVends, sc.warmFamily, warmDir, true); err != nil {
		return nil, 0, err
	}
	tr.setPhase(wService)
	if err := r.service(reqs); err != nil {
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// coverageTolerance bounds trace.coverage: the layer self times must
// account for at least this share of the traced wall time. The rest is
// the replay's own work between calls (building results, comparing
// verdicts, rendering cell reports).
const coverageTolerance = 0.90

// traceRun performs the traced run: an untraced replay (the overhead
// baseline), then the traced replay of the same inputs.
func traceRun(ctx context.Context, b *bench) (*result, error) {
	sc := traceScope(b.workload, b.seed)
	reqs, err := serviceRequests(b.seed, b.golden, sc.svcN)
	if err != nil {
		return nil, err
	}
	warmDir := filepath.Join(b.work, "trace-warm")
	fill := &replayer{ctx: ctx, c: &counts{tplInterp: map[string]time.Duration{}}, g: b.golden}
	if err := fill.sweep(sc.warmVends, sc.warmFamily, warmDir, false); err != nil {
		return nil, err
	}
	cu, wallU, err := replayPass(ctx, b.golden, nil, sc, reqs, filepath.Join(b.work, "trace-cold-0"), warmDir)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ct, wallT, err := replayPass(ctx, b.golden, tr, sc, reqs, filepath.Join(b.work, "trace-cold-1"), warmDir)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	for _, c := range []*counts{fill.c, cu, ct} {
		res.Attempted += c.log.attempted
		res.Failed += c.log.failed
		res.notes = append(res.notes, c.log.notes...)
		if c.log.mismatches > 0 {
			res.Correct = false
		}
	}
	if strings.Join(cu.outputs, "\x00") != strings.Join(ct.outputs, "\x00") {
		res.Correct = false
		res.notes = append(res.notes, "traced verdicts differ from the untraced replay's")
	}
	if cu.compilerCounts() != ct.compilerCounts() {
		res.Correct = false
		res.notes = append(res.notes, fmt.Sprintf("compiler counts differ between replays: %v vs %v",
			cu.compilerCounts(), ct.compilerCounts()))
	}
	self, byPhase := tr.selfTimes()
	var covered time.Duration
	for _, d := range self {
		covered += d
	}
	coverage := covered.Seconds() / wallT.Seconds()
	if coverage < coverageTolerance || coverage > 1.001 {
		res.Correct = false
		res.notes = append(res.notes, fmt.Sprintf("trace.coverage %.4f outside [%.2f, 1]", coverage, coverageTolerance))
	}
	res.Metrics = layerMetrics(ct, self, coverage, wallT.Seconds()/wallU.Seconds()-1)
	res.lines = append(traceLines(byPhase, ct, wallU, wallT),
		fmt.Sprintf("ops: %d attempted, %d failed, error_rate %.4f; %d rows differ from the golden outside the verdict columns",
			res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), cu.log.otherDiffs+ct.log.otherDiffs),
		fmt.Sprintf("runs whose spmd outcome differed from the vm's: %d of %d", ct.engineDiffs, ct.spmdRuns))
	return res, nil
}

// layerMetrics builds the per-layer metric set.
func layerMetrics(c *counts, self map[string]time.Duration, coverage, overhead float64) map[string]metric {
	busy := func(name string) float64 { return self[name].Seconds() }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, l := range []string{"core.generate", "cfront.parse", "ffront.parse", "compiler.compile",
		"analysis.analyze", "analysis.lanesafety", "bytecode.lower", "interp.vm", "interp.spmd",
		"device.platform", "sweep.fingerprint", "core.suite", "store.open", "store.get", "store.put", "report.write"} {
		put(l+".busy_s", busy(l), "s")
	}
	put("cfront.parse.kb_per_s", ratio(float64(c.parseBytes[ast.LangC])/1024, busy("cfront.parse")), "KB/s")
	put("ffront.parse.kb_per_s", ratio(float64(c.parseBytes[ast.LangFortran])/1024, busy("ffront.parse")), "KB/s")
	put("bytecode.procs_lowered", float64(c.procsLowered), "count")
	put("bytecode.procs_declined", float64(c.procsDeclined), "count")
	put("compiler.batch_nests", float64(c.batchNests), "count")
	put("compiler.batch_declined", float64(c.batchDeclined), "count")
	put("interp.vm.ns_per_op", ratio(float64(self["interp.vm"].Nanoseconds()), float64(c.vmOps)), "ns")
	put("interp.spmd.ns_per_op", ratio(float64(self["interp.spmd"].Nanoseconds()), float64(c.spmdOps)), "ns")
	put("interp.runs", float64(c.vmRuns), "count")
	put("interp.ops", float64(c.vmOps), "count")
	put("interp.kernels", float64(c.kernels), "count")
	put("interp.spmd.batched_nests", float64(c.batched), "count")
	put("interp.spmd.fallback_nests", float64(c.fallback), "count")
	put("interp.spmd.batch_ratio", ratio(float64(c.batched), float64(c.batched+c.fallback)), "ratio")
	put("interp.top8_share", top8Share(c.tplInterp), "ratio")
	put("device.bytes_in", float64(c.bytesIn), "B")
	put("device.bytes_out", float64(c.bytesOut), "B")
	put("device.present_hit_ratio", ratio(float64(c.presentHits), float64(c.presentHits+c.presentMisses)), "ratio")
	put("device.queue_waits", float64(c.queueWaits), "count")
	put("device.sim_cycles", float64(c.simCycles), "count")
	put("sweep.fingerprint.calls", float64(c.fpCalls), "count")
	put("core.memo.hits", float64(c.memoHits), "count")
	put("core.memo.misses", float64(c.memoMisses), "count")
	put("core.memo.hit_ratio", ratio(float64(c.memoHits), float64(c.memoHits+c.memoMisses)), "ratio")
	put("store.get.calls", float64(c.getCalls), "count")
	put("store.get.hit_ratio", ratio(float64(c.getHits), float64(c.getCalls)), "ratio")
	put("store.put.calls", float64(c.putCalls), "count")
	put("store.corrupt", float64(c.corrupt), "count")
	for _, ep := range endpoints {
		lat := durationsMS(c.svcLat[ep])
		put("service."+ep+".p50_ms", nearestRank(lat, 50).Value, "ms")
		put("service."+ep+".p99_ms", nearestRank(lat, 99).Value, "ms")
		put("service."+ep+".requests", float64(len(lat)), "count")
	}
	put("service.rejected", float64(c.rejected), "count")
	put("service.cache.hit_ratio", ratio(float64(c.svcCacheHits), float64(c.svcCacheHits+c.svcCacheMisses)), "ratio")
	put("service.memo.hit_ratio", ratio(float64(c.svcMemoHits), float64(c.svcMemoHits+c.svcMemoMisses)), "ratio")
	put("trace.coverage", coverage, "ratio")
	put("trace.overhead", overhead, "ratio")
	return m
}

// top8Share is the share of VM interpretation time spent in the eight
// templates that took longest.
func top8Share(byTpl map[string]time.Duration) float64 {
	var ds []float64
	total := 0.0
	for _, d := range byTpl {
		ds = append(ds, d.Seconds())
		total += d.Seconds()
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ds)))
	top := 0.0
	for i := 0; i < len(ds) && i < 8; i++ {
		top += ds[i]
	}
	return ratio(top, total)
}

// traceLines renders the per-phase self-time table and the service
// sample counts for the human-readable part of the output.
func traceLines(byPhase map[string]map[string]time.Duration, c *counts, wallU, wallT time.Duration) []string {
	lines := []string{fmt.Sprintf("replay wall: untraced %.3fs, traced %.3fs", wallU.Seconds(), wallT.Seconds()),
		"self time by phase (s):"}
	for _, ph := range workloadNames {
		var names []string
		for n := range byPhase[ph] {
			names = append(names, n)
		}
		sort.Strings(names)
		var parts []string
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s=%.3f", n, byPhase[ph][n].Seconds()))
		}
		lines = append(lines, fmt.Sprintf("  %-13s %s", ph, strings.Join(parts, " ")))
	}
	for _, ep := range endpoints {
		lines = append(lines, fmt.Sprintf("service.%s: n=%d", ep, len(c.svcLat[ep])))
	}
	return lines
}
