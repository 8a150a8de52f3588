package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"accv/internal/ast"
	"accv/internal/core"
	"accv/internal/vendors"
)

// Workload names. Later issues refer to the workloads by these names.
const (
	wSuite   = "suite-release"
	wCold    = "sweep-cold"
	wWarm    = "sweep-warm"
	wService = "service-mixed"
)

var workloadNames = []string{wSuite, wCold, wWarm, wService}

// sweepVendors are the vendor families accval sweeps.
var sweepVendors = []string{"caps", "pgi", "cray"}

// langs is the language pair every workload covers (-lang both).
var langs = []ast.Lang{ast.LangC, ast.LangFortran}

// release is one compiler release the suite validates.
type release struct {
	Compiler string `json:"compiler"`
	Version  string `json:"version"`
}

// key names the release's golden file.
func (r release) key() string { return r.Compiler + "-" + r.Version }

// args selects the release on an accval command line. The reference
// compiler has a single version, which accval picks itself.
func (r release) args() []string {
	if r.Compiler == "reference" {
		return []string{"-compiler", "reference"}
	}
	return []string{"-compiler", r.Compiler, "-version", r.Version}
}

// allReleases lists every simulated vendor release plus the reference
// compiler: the release matrix the golden verdicts cover.
func allReleases() []release {
	var out []release
	for _, v := range sweepVendors {
		for _, ver := range vendors.All()[v] {
			out = append(out, release{v, ver})
		}
	}
	return append(out, release{"reference", "1.0"})
}

// suiteReleases is the release set suite-release validates and the
// service mix draws from: the first and the last simulated release of
// each vendor (the ends of the Fig. 8 sweep) plus the reference compiler.
// The set is fixed and the seed draws the order. A seeded subset of the
// matrix would change each run's cost mix (caps 3.0.8 takes 2.8 s where
// the other releases take 0.9-1.4 s), and with the dozen invocations a
// run holds, the run-to-run spread of throughput and p99 would swamp any
// regression bound.
func suiteReleases() []release {
	var out []release
	for _, v := range sweepVendors {
		vs := vendors.All()[v]
		out = append(out, release{v, vs[0]}, release{v, vs[len(vs)-1]})
	}
	return append(out, release{"reference", "1.0"})
}

// families lists the OpenACC 1.0 template families of a language.
func families(lang ast.Lang) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range core.ByLang(lang) {
		if !seen[t.Family] {
			seen[t.Family] = true
			out = append(out, t.Family)
		}
	}
	sort.Strings(out)
	return out
}

// cliOp is one accval invocation of a CLI workload.
type cliOp struct {
	// Kind is "run" (one release suite) or "sweep" (one vendor sweep).
	Kind    string  `json:"kind"`
	Release release `json:"release,omitempty"`
	Vendor  string  `json:"vendor,omitempty"`
}

// args is the accval command line for the op: -j jobs, and -store when
// store is set.
func (o cliOp) args(jobs int, store string) []string {
	var a []string
	if o.Kind == "run" {
		a = append([]string{"run"}, o.Release.args()...)
		a = append(a, "-format", "csv")
	} else {
		a = []string{"sweep", "-compiler", o.Vendor}
	}
	a = append(a, "-lang", "both", "-j", fmt.Sprint(jobs))
	if store != "" {
		a = append(a, "-store", store)
	}
	return a
}

// cycleCount is how many cycles of a CLI workload's op stream are
// generated; a run consumes whole cycles from the front and wraps.
const cycleCount = 64

// cliCycles draws a CLI workload's op stream from the seed. Each cycle
// holds every item of the workload's set once, in a seeded order, so
// every whole cycle has the same cost mix whatever the seed.
func cliCycles(workload string, seed int64) [][]cliOp {
	rng := rand.New(rand.NewSource(seed))
	var set []cliOp
	if workload == wSuite {
		for _, r := range suiteReleases() {
			set = append(set, cliOp{Kind: "run", Release: r})
		}
	} else {
		for _, v := range sweepVendors {
			set = append(set, cliOp{Kind: "sweep", Vendor: v})
		}
	}
	cycles := make([][]cliOp, cycleCount)
	for i := range cycles {
		for _, j := range rng.Perm(len(set)) {
			cycles[i] = append(cycles[i], set[j])
		}
	}
	return cycles
}

// svcReq is one request of the service mix.
type svcReq struct {
	Endpoint string   `json:"endpoint"` // compile, run, vet, suite or sweep
	Release  release  `json:"release,omitempty"`
	Template string   `json:"template,omitempty"`
	Lang     ast.Lang `json:"lang"`
	Family   string   `json:"family,omitempty"`
	Vendor   string   `json:"vendor,omitempty"`
}

// endpoints are the service endpoints the mix exercises.
var endpoints = []string{"compile", "run", "vet", "suite", "sweep"}

// endpointBlock is one block of the mix: 2 sweeps and 5 suites in 50
// requests (1 in 25 and 1 in 10, the BENCH_service.json mix), the rest
// compile, run and vet.
var endpointBlock = func() []string {
	var b []string
	for _, e := range []struct {
		ep string
		n  int
	}{{"sweep", 2}, {"suite", 5}, {"compile", 14}, {"run", 14}, {"vet", 15}} {
		for i := 0; i < e.n; i++ {
			b = append(b, e.ep)
		}
	}
	return b
}()

// serviceSweepVendor is the vendor the service mix sweeps, as in
// BENCH_service.json. A daemon executes each (vendor, family) sweep once
// and serves repeats from its memo; over all three vendors those first
// executions would take half of a run's CPU, so throughput would hinge
// on how fast the run got past them.
const serviceSweepVendor = "pgi"

// mix is the seeded request stream every client of the service workload
// draws from. Each block of 50 requests holds the endpoints in fixed
// proportions, in a seeded order. Each endpoint draws its next request
// from a seeded shuffle of every request of its kind, reshuffled once
// used up: every (release, lang, family) suite, every family sweep of
// serviceSweepVendor over both languages, and for compile, run and vet every
// (release, lang, template) whose golden verdict is pass, so each of
// them must succeed. Dealing from shuffled decks rather than drawing
// independently keeps the cost mix of a run nearly the same whatever
// the seed: a run deals the suite deck about once and the sweep deck
// several times (the first deal executes, later ones hit the memo).
type mix struct {
	mu           sync.Mutex
	rng          *rand.Rand
	block        []string
	decks, dealt map[string][]svcReq
}

func newMix(seed int64, g *golden) *mix {
	m := &mix{rng: rand.New(rand.NewSource(seed)), decks: map[string][]svcReq{}, dealt: map[string][]svcReq{}}
	var calls []svcReq
	for _, rel := range suiteReleases() {
		for _, lang := range langs {
			for _, fam := range families(lang) {
				m.decks["suite"] = append(m.decks["suite"], svcReq{Endpoint: "suite", Release: rel, Lang: lang, Family: fam})
			}
			for _, tpl := range g.passing(rel, lang) {
				calls = append(calls, svcReq{Release: rel, Lang: lang, Template: tpl})
			}
		}
	}
	for _, fam := range families(ast.LangC) {
		m.decks["sweep"] = append(m.decks["sweep"], svcReq{Endpoint: "sweep", Vendor: serviceSweepVendor, Family: fam})
	}
	for _, ep := range []string{"compile", "run", "vet"} {
		for _, c := range calls {
			c.Endpoint = ep
			m.decks[ep] = append(m.decks[ep], c)
		}
	}
	return m
}

// next deals the stream's next request; it is safe for concurrent use.
func (m *mix) next() svcReq {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.block) == 0 {
		m.block = append([]string(nil), endpointBlock...)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	ep := m.block[0]
	m.block = m.block[1:]
	if len(m.dealt[ep]) == 0 {
		d := append([]svcReq(nil), m.decks[ep]...)
		m.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		m.dealt[ep] = d
	}
	q := m.dealt[ep][0]
	m.dealt[ep] = m.dealt[ep][1:]
	return q
}

// mixHashPrefix is how many requests of the stream the input hash
// covers; a run consumes a time-dependent prefix of it.
const mixHashPrefix = 2048

// inputHash digests everything the seed generates for a workload, so
// two results with the same hash measured the same inputs.
func inputHash(workload string, seed int64, g *golden) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode([]any{workload, seed}) // hash.Hash writes never fail
	if workload == wService {
		m := newMix(seed, g)
		for i := 0; i < mixHashPrefix; i++ {
			_ = enc.Encode(m.next())
		}
	} else {
		_ = enc.Encode(cliCycles(workload, seed))
	}
	return hex.EncodeToString(h.Sum(nil))
}
