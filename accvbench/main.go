// Command accvbench is the repository benchmark: it drives the built
// accval and accvd binaries as child processes on seeded workloads,
// checks every verdict against golden files produced by the tree engine,
// and prints end-to-end metrics; with -trace 1 it instead replays the
// workload's inputs in-process through each layer's public function and
// prints per-layer metrics. Run it from the repository root through
// accvbench/run.sh (see README.md).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// clients is the benchmark's load width: nproc workers or connections.
func clients() int { return runtime.NumCPU() }

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// bench is one benchmark invocation.
type bench struct {
	root, workload string
	seed           int64
	jobs           int // accval -j
	golden         *golden
	work           string // scratch directory under .bench_build, removed at exit
	bin            string // directory of the built accval and accvd
	store          string // sweep-warm's filled store
}

func (b *bench) accval() string { return filepath.Join(b.bin, "accval") }
func (b *bench) accvd() string  { return filepath.Join(b.bin, "accvd") }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line, plus the human-readable
// lines printed before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	lines     []string
	notes     []string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("accvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository checkout to build and measure")
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "measurement time per run")
	trace := fs.Int("trace", 0, "0: timed run with tracing off; 1: traced in-process replay")
	regen := fs.Bool("regen-golden", false, "rewrite accvbench/golden with the tree engine and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*regen && !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "accvbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "accvbench: -trace must be 0 or 1 and -seconds at least 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b := &bench{root: *root, workload: *workload, seed: *seed, jobs: clients()}
	for _, p := range []string{"go.mod", "cmd/accval", "cmd/accvd"} {
		if _, err := os.Stat(filepath.Join(b.root, p)); err != nil {
			fmt.Fprintf(stderr, "accvbench: %s is not an accv checkout: %v\n", b.root, err)
			return 1
		}
	}
	b.work = filepath.Join(b.root, ".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "accvbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	if *regen {
		if err := b.build(ctx, filepath.Join(b.work, "bin")); err != nil {
			fmt.Fprintf(stderr, "accvbench: %v\n", err)
			return 1
		}
		if err := regenGolden(ctx, b.root, b.accval(), b.jobs); err != nil {
			fmt.Fprintf(stderr, "accvbench: %v\n", err)
			return 1
		}
		return 0
	}

	g, err := loadGolden(b.root)
	if err != nil {
		fmt.Fprintf(stderr, "accvbench: %v\n", err)
		return 1
	}
	b.golden = g
	var res *result
	if *trace == 1 {
		res, err = traceRun(ctx, b)
	} else {
		res, err = timedRun(ctx, b, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(stderr, "accvbench: %v\n", err)
		return 1
	}
	env := newEnvelope(b, *trace, *seconds)
	printResult(stdout, res, env)
	return 0
}

// build compiles accval and accvd from the checkout into dir.
func (b *bench) build(ctx context.Context, dir string) error {
	res := runChild(ctx, 15*time.Minute, b.root, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/accval", "./cmd/accvd")
	if res.Err != nil || res.Exit != 0 || res.TimedOut {
		return fmt.Errorf("go build: exit %d: %v: %s", res.Exit, res.Err, res.Stderr)
	}
	b.bin = dir
	return nil
}

// setup prepares a timed run setupReps times and returns each
// repetition's duration: build both binaries, then fill the warm store
// (sweep-warm) or start accvd until /healthz answers (service-mixed).
// The last repetition's binaries, store and daemon are the ones
// measured; the daemon is nil for the CLI workloads.
func (b *bench) setup(ctx context.Context) ([]time.Duration, *daemon, error) {
	var times []time.Duration
	var d *daemon
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
			d = nil
		}
		if b.bin != "" {
			if err := os.RemoveAll(b.bin); err != nil {
				return nil, nil, err
			}
		}
		dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", rep))
		start := time.Now()
		if err := b.build(ctx, dir); err != nil {
			return nil, nil, err
		}
		switch b.workload {
		case wWarm:
			b.store = filepath.Join(dir, "store")
			for _, v := range sweepVendors {
				op := cliOp{Kind: "sweep", Vendor: v}
				res := runChild(ctx, opTimeout, b.root, b.accval(), op.args(b.jobs, b.store)...)
				l := &opLog{}
				checkCLI(l, b.golden, wCold, op, res)
				if l.failed > 0 {
					return nil, nil, fmt.Errorf("filling the warm store: %s", strings.Join(l.notes, "; "))
				}
			}
		case wService:
			var err error
			if d, err = startDaemon(ctx, b.accvd(), b.work); err != nil {
				return nil, nil, err
			}
		}
		times = append(times, time.Since(start))
	}
	return times, d, nil
}

// timedRun sets up, measures the workload with tracing off and derives
// the end-to-end metrics.
func timedRun(ctx context.Context, b *bench, seconds time.Duration) (*result, error) {
	setupTimes, d, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	var setup []float64
	for _, t := range setupTimes {
		setup = append(setup, t.Seconds())
	}
	res := &result{}
	var l *opLog
	var busy, cpu time.Duration
	var rss float64
	if d == nil {
		if l, err = runCLI(ctx, b, seconds); err != nil {
			return nil, err
		}
		for _, w := range l.walls {
			busy += w
		}
		cpu = l.cpu
		for _, r := range l.rss {
			rss = max(rss, float64(r))
		}
	} else {
		cpu0, err0 := procCPU(d.cmd.Process.Pid)
		sl := runService(ctx, b, d, seconds)
		cpu1, err1 := procCPU(d.cmd.Process.Pid)
		exit := d.stop()
		if err := errors.Join(err0, err1); err != nil {
			return nil, err
		}
		l, busy, cpu, rss = &sl.opLog, sl.window, cpu1-cpu0, float64(exit.MaxRSS)
		for _, ep := range endpoints {
			lat := durationsMS(sl.byEndpoint[ep])
			p50, p99 := nearestRank(lat, 50), nearestRank(lat, 99)
			res.lines = append(res.lines, fmt.Sprintf("endpoint %-7s n=%-5d p50=%.3fms p99=%.3fms", ep, p50.N, p50.Value, p99.Value))
		}
	}
	res.Metrics = endToEnd(l, setup, busy, cpu, rss)
	res.Correct = l.mismatches == 0
	res.Attempted, res.Failed, res.notes = l.attempted, l.failed, l.notes
	res.lines = append(res.lines,
		fmt.Sprintf("setup repetitions: %s", fmtFloats(setup, "%.3fs")),
		fmt.Sprintf("ops: %d attempted, %d failed, error_rate %.4f; %d verdicts over %.3fs busy; %d rows differ from the golden outside the verdict columns",
			l.attempted, l.failed, ratio(float64(l.failed), float64(l.attempted)), l.verdicts, busy.Seconds(), l.otherDiffs),
		fmt.Sprintf("latency samples (service_p50_ms, service_p99_ms): n=%d", len(l.walls)))
	return res, nil
}

// endToEnd derives the end-to-end metrics of a timed run. An op is one
// accval invocation or one HTTP request; busy is the summed invocation
// wall time (CLI) or the measurement window (service); rss is in bytes.
func endToEnd(l *opLog, setup []float64, busy, cpu time.Duration, rss float64) map[string]metric {
	lat := durationsMS(l.walls)
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"tests_per_s":     {ratio(float64(l.verdicts), busy.Seconds()), "verdicts/s"},
		"cpu_ms_per_test": {ratio(ms(cpu), float64(l.verdicts)), "ms"},
		"peak_rss_mb":     {rss / (1 << 20), "MB"},
		"service_rps":     {ratio(float64(l.attempted), busy.Seconds()), "req/s"},
		"service_p50_ms":  {nearestRank(lat, 50).Value, "ms"},
		"service_p99_ms":  {nearestRank(lat, 99).Value, "ms"},
	}
}

func fmtFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// envelope stamps a result with what it was measured on.
type envelope struct {
	GitRev       string `json:"git_rev"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	Nproc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	InputSHA256  string `json:"input_sha256"`
}

func newEnvelope(b *bench, trace, seconds int) envelope {
	return envelope{
		GitRev:       gitRev(b.root),
		SourceSHA256: sourceHash(b.root),
		GoVersion:    runtime.Version(),
		Nproc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workload:     b.workload,
		Seed:         b.seed,
		Seconds:      seconds,
		Trace:        trace,
		InputSHA256:  inputHash(b.workload, b.seed, b.golden),
	}
}

// gitRev is the checkout's commit, or "none" outside a git work tree
// (only a .git in the root counts, never one in a parent directory).
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every file of the checkout except version control
// and benchmark output, identifying the measured tree without git.
func sourceHash(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printResult writes the human-readable lines, the envelope, and the
// result JSON as the last line.
func printResult(w io.Writer, res *result, env envelope) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "failure:", n)
	}
	e, _ := json.Marshal(env) // plain struct of strings and ints
	fmt.Fprintf(w, "envelope %s\n", e)
	out, _ := json.Marshal(res) // finite floats only: ratio guards every division
	fmt.Fprintf(w, "%s\n", out)
}
