package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"accv/internal/ast"
)

var (
	goldenOnce sync.Once
	goldenData *golden
	goldenErr  error
)

// testGolden loads the committed golden files once per test binary.
func testGolden(t *testing.T) *golden {
	t.Helper()
	goldenOnce.Do(func() { goldenData, goldenErr = loadGolden("..") })
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenData
}

func TestSeedDeterminesInputs(t *testing.T) {
	g := testGolden(t)
	for _, w := range workloadNames {
		a, b := inputHash(w, 1, g), inputHash(w, 1, g)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %s and %s", w, a, b)
		}
		if c := inputHash(w, 2, g); c == a {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w)
		}
	}
	r1, r2 := traceScope(wSuite, 7), traceScope(wSuite, 7)
	if r1.suiteFamily != r2.suiteFamily || r1.sweepVends[0] != r2.sweepVends[0] {
		t.Errorf("trace scope differs for one seed: %+v vs %+v", r1, r2)
	}
}

func TestCyclesHoldEveryItemOnce(t *testing.T) {
	for _, w := range []string{wSuite, wCold} {
		for _, cyc := range cliCycles(w, 3) {
			seen := map[string]bool{}
			for _, op := range cyc {
				k := op.Vendor + op.Release.key()
				if seen[k] {
					t.Fatalf("%s: %s twice in one cycle", w, k)
				}
				seen[k] = true
			}
			want := len(sweepVendors)
			if w == wSuite {
				want = len(suiteReleases())
			}
			if len(seen) != want {
				t.Fatalf("%s: cycle has %d items, want %d", w, len(seen), want)
			}
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		got := nearestRank(xs, c.p)
		if got.Value != c.want || got.N != len(xs) {
			t.Errorf("p%v = %v (n=%d), want %v (n=%d)", c.p, got.Value, got.N, c.want, len(xs))
		}
	}
	if xs[0] != 10 {
		t.Error("nearestRank reordered its input")
	}
	if got := nearestRank(nil, 99); got.N != 0 || got.Value != 0 {
		t.Errorf("empty input: %+v", got)
	}
	if got := nearestRank([]float64{4, 2, 3}, 50); got.Value != 3 || got.N != 3 {
		t.Errorf("p50 of three: %+v", got)
	}
}

// flip changes the outcome of the first passing row of a CSV report.
func flip(t *testing.T, csv []byte) []byte {
	t.Helper()
	lines := strings.Split(string(csv), "\n")
	for i, l := range lines {
		if f := strings.Split(l, ","); len(f) > 5 && f[5] == "pass" {
			f[5] = "crash"
			lines[i] = strings.Join(f, ",")
			return []byte(strings.Join(lines, "\n"))
		}
	}
	t.Fatal("no passing row to flip")
	return nil
}

func TestGoldenFlagsOneFlippedVerdict(t *testing.T) {
	g := testGolden(t)
	ref := release{"reference", "1.0"}
	op := cliOp{Kind: "run", Release: ref}
	good := g.runs[ref.key()]

	l := &opLog{}
	checkCLI(l, g, wSuite, op, childResult{Stdout: good, Exit: 0})
	if l.failed != 0 || l.mismatches != 0 || l.verdicts != g.verdicts(ref) {
		t.Fatalf("golden output judged wrong: %+v", l)
	}
	bad := flip(t, good)
	if n, _ := compareRows(bad, good); n != 1 {
		t.Fatalf("one flipped verdict counted as %d mismatches", n)
	}
	detail := []byte(strings.Replace(string(good), ",0,\n", ",0,index 8 out of range\n", 1))
	stats := []byte(strings.Replace(string(good), ",3,0,3,3,1.000,1.000,", ",3,0,2,3,0.667,0.963,", 1))
	for _, b := range [][]byte{detail, stats} {
		if n, d := compareRows(b, good); n != 0 || d != 1 {
			t.Fatalf("a difference outside the verdict counted as %d verdict and %d other diffs", n, d)
		}
	}
	checkCLI(l, g, wSuite, op, childResult{Stdout: bad, Exit: 0})
	if l.failed != 1 || l.mismatches != 1 {
		t.Fatalf("flipped verdict not flagged: failed %d, mismatches %d", l.failed, l.mismatches)
	}

	req := svcReq{Endpoint: "suite", Release: ref, Lang: ast.LangC, Family: "data"}
	body := func(report []byte) []byte {
		b, _ := json.Marshal(map[string]string{"report": string(report)}) // strings always encode
		return b
	}
	want := g.familyCSV(ref, ast.LangC, "data")
	if _, mismatch, err := checkResponse(g, req, http.StatusOK, body(want)); mismatch || err != nil {
		t.Fatalf("golden suite reply judged wrong: %v", err)
	}
	if _, mismatch, err := checkResponse(g, req, http.StatusOK, body(flip(t, want))); !mismatch || err == nil {
		t.Fatal("flipped verdict in a suite reply not flagged")
	}
}

func TestWrongExitCodeFailsOp(t *testing.T) {
	g := testGolden(t)
	ref := release{"reference", "1.0"}
	l := &opLog{}
	checkCLI(l, g, wSuite, cliOp{Kind: "run", Release: ref}, childResult{Stdout: g.runs[ref.key()], Exit: 1})
	if l.failed != 1 || l.mismatches != 0 {
		t.Fatalf("exit 1 on an all-pass release: failed %d, mismatches %d", l.failed, l.mismatches)
	}
}

func TestStoreLineChecks(t *testing.T) {
	cold := []byte("accval: store d: 0 disk hits, 12 memo hits, 40 executions this sweep\n")
	warm := []byte("accval: store d: 40 disk hits, 12 memo hits, 0 executions this sweep\n")
	for _, c := range []struct {
		workload string
		stderr   []byte
		ok       bool
	}{{wCold, cold, true}, {wCold, warm, false}, {wWarm, warm, true}, {wWarm, cold, false}, {wWarm, nil, false}} {
		if msg := checkStoreLine(c.workload, c.stderr); (msg == "") != c.ok {
			t.Errorf("%s %q: %q", c.workload, c.stderr, msg)
		}
	}
}

func TestRejectedRequestsRaiseErrorRate(t *testing.T) {
	g := testGolden(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"quota"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	b := &bench{seed: 1, golden: g}
	l := runService(context.Background(), b, &daemon{addr: ts.Listener.Addr().String()}, 100*time.Millisecond)
	if l.attempted == 0 || l.failed != l.attempted {
		t.Fatalf("429 replies: %d attempted, %d failed", l.attempted, l.failed)
	}
	if l.mismatches != 0 {
		t.Fatalf("a refused request is a failure, not a wrong verdict: %d mismatches", l.mismatches)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.setPhase("p")
	tr.do("outer", func() {
		time.Sleep(2 * time.Millisecond)
		tr.do("inner", func() { time.Sleep(3 * time.Millisecond) })
	})
	total, byPhase := tr.selfTimes()
	outer, inner := tr.spans[0].end-tr.spans[0].start, tr.spans[1].end-tr.spans[1].start
	if total["inner"] != inner || total["outer"] != outer-inner {
		t.Fatalf("self times %v for outer %v, inner %v", total, outer, inner)
	}
	if byPhase["p"]["outer"] != total["outer"] || tr.spans[1].parent != 0 {
		t.Fatalf("phase or parent attribution wrong: %v, parent %d", byPhase, tr.spans[1].parent)
	}
	var untraced *tracer
	ran := false
	if d := untraced.do("x", func() { ran = true }); d != 0 || !ran {
		t.Fatal("nil tracer must run f untimed")
	}
}

// TestMetricsMatchBenchmarkJSON holds the metric names and units the
// benchmark prints to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	l := &opLog{walls: []time.Duration{time.Second}, verdicts: 1, attempted: 1}
	c := &counts{tplInterp: map[string]time.Duration{}, svcLat: map[string][]time.Duration{}}
	for _, set := range []struct {
		name string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEnd(l, []float64{1}, time.Second, time.Second, 1), spec.EndToEnd},
		{"per_layer", layerMetrics(c, map[string]time.Duration{}, 1, 0), spec.PerLayer},
	} {
		if len(set.got) != len(set.want) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json declares %d", set.name, len(set.got), len(set.want))
		}
		for _, m := range set.want {
			if got, ok := set.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: %s [%s] declared, printed as %+v (present %v)", set.name, m.Name, m.Unit, got, ok)
			}
		}
	}
}

// TestReplaySlice replays a one-family slice of every workload untraced
// and traced: both replays must match the golden verdicts and each
// other, and the layer spans must cover the traced wall time.
func TestReplaySlice(t *testing.T) {
	g := testGolden(t)
	sc := scope{suiteRels: []release{{"pgi", "12.6"}}, suiteFamily: "update",
		sweepVends: []string{"cray"}, sweepFamily: "update",
		warmVends: []string{"cray"}, warmFamily: "update", svcN: 50}
	reqs, err := serviceRequests(3, g, sc.svcN)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	fill := &replayer{ctx: ctx, c: &counts{tplInterp: map[string]time.Duration{}}, g: g}
	if err := fill.sweep(sc.warmVends, sc.warmFamily, dir+"/warm", false); err != nil {
		t.Fatal(err)
	}
	cu, _, err := replayPass(ctx, g, nil, sc, reqs, dir+"/cold0", dir+"/warm")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	ct, wall, err := replayPass(ctx, g, tr, sc, reqs, dir+"/cold1", dir+"/warm")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*counts{fill.c, cu, ct} {
		if c.log.failed != 0 {
			t.Fatalf("replay failed %d of %d ops: %v", c.log.failed, c.log.attempted, c.log.notes)
		}
	}
	if strings.Join(cu.outputs, "\x00") != strings.Join(ct.outputs, "\x00") || cu.compilerCounts() != ct.compilerCounts() {
		t.Fatal("untraced and traced replays disagree")
	}
	if ct.memoHits == 0 || ct.getHits == 0 || ct.putCalls == 0 || ct.vmRuns == 0 || ct.fpCalls == 0 {
		t.Fatalf("a phase did no work: %+v", ct)
	}
	self, _ := tr.selfTimes()
	var covered time.Duration
	for _, d := range self {
		covered += d
	}
	if cov := covered.Seconds() / wall.Seconds(); cov < coverageTolerance || cov > 1.001 {
		t.Fatalf("trace.coverage %.3f", cov)
	}
}
