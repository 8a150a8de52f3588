package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// childResult is one finished child process, with the resource usage
// wait4 reported for that child alone (not RUSAGE_CHILDREN, which is a
// running maximum over every child reaped so far).
type childResult struct {
	Wall           time.Duration
	CPU            time.Duration // user + system
	MaxRSS         int64         // bytes
	Exit           int
	Stdout, Stderr []byte
	TimedOut       bool
	Err            error // the child could not be started or waited for
}

// runChild runs bin with args in dir and waits for it. A timeout > 0
// kills the child when it expires; cancelling ctx kills it too.
func runChild(ctx context.Context, timeout time.Duration, dir, bin string, args ...string) childResult {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &out, &errb
	start := time.Now()
	err := cmd.Run()
	res := childResult{Wall: time.Since(start), Stdout: out.Bytes(), Stderr: errb.Bytes()}
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		res.Err = err
		return res
	}
	res.TimedOut = ctx.Err() != nil
	res.Exit = cmd.ProcessState.ExitCode()
	usage(cmd.ProcessState, &res)
	return res
}

// usage copies a reaped child's own rusage into res.
func usage(ps *os.ProcessState, res *childResult) {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		res.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		res.MaxRSS = ru.Maxrss * 1024 // Linux reports kilobytes
	}
}

// opLog accumulates the ops of one timed run.
type opLog struct {
	walls      []time.Duration
	cpu        time.Duration
	rss        []int64
	verdicts   int
	attempted  int
	failed     int
	mismatches int // ops whose verdicts differed from the golden
	otherDiffs int // rows whose verdict matched but other columns did not
	notes      []string
}

// fail records a failed op with its reason (the first few are printed).
func (l *opLog) fail(format string, args ...any) {
	l.failed++
	if len(l.notes) < 8 {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
}

// storeLine matches accval sweep's store telemetry on stderr.
var storeLine = regexp.MustCompile(`: (\d+) disk hits, (\d+) memo hits, (\d+) executions this sweep`)

// checkCLI judges one accval invocation of a CLI workload against the
// golden verdicts and records it with the verdicts it served.
func checkCLI(l *opLog, g *golden, workload string, op cliOp, res childResult) {
	l.attempted++
	l.walls = append(l.walls, res.Wall)
	l.cpu += res.CPU
	l.rss = append(l.rss, res.MaxRSS)
	name := op.Vendor
	if op.Kind == "run" {
		name = op.Release.key()
	}
	switch {
	case res.Err != nil:
		l.fail("%s: %v", name, res.Err)
		return
	case res.TimedOut:
		l.fail("%s: timed out after %s", name, res.Wall.Round(time.Millisecond))
		return
	}
	if op.Kind == "run" {
		want := 0
		if g.failing(op.Release) {
			want = 1
		}
		l.verdicts += g.verdicts(op.Release)
		n, others := compareRows(res.Stdout, g.runs[op.Release.key()])
		l.otherDiffs += others
		if n > 0 {
			l.mismatches++
			l.fail("%s: %d verdict rows differ from the golden; first: %s", name, n, firstDiff(res.Stdout, g.runs[op.Release.key()]))
		} else if res.Exit != want {
			l.fail("%s: exit %d, want %d", name, res.Exit, want)
		}
		return
	}
	l.verdicts += g.sweepVerdicts(op.Vendor)
	if !bytes.Equal(res.Stdout, g.sweeps[op.Vendor]) {
		l.mismatches++
		l.fail("%s: sweep table differs from the golden", name)
		return
	}
	if res.Exit != 0 {
		l.fail("%s: exit %d, want 0", name, res.Exit)
		return
	}
	if msg := checkStoreLine(workload, res.Stderr); msg != "" {
		l.fail("%s: %s", name, msg)
	}
}

// checkStoreLine checks the sweep's store telemetry: a cold sweep must
// see 0 disk hits and execute, a warm one must execute nothing.
func checkStoreLine(workload string, stderr []byte) string {
	m := storeLine.FindSubmatch(stderr)
	if m == nil {
		return "no store telemetry line on stderr"
	}
	disk, _ := strconv.Atoi(string(m[1])) // the pattern admits digits only
	execs, _ := strconv.Atoi(string(m[3]))
	switch {
	case workload == wCold && (disk != 0 || execs == 0):
		return fmt.Sprintf("cold sweep saw %d disk hits and %d executions, want 0 disk hits", disk, execs)
	case workload == wWarm && (execs != 0 || disk == 0):
		return fmt.Sprintf("warm sweep saw %d executions and %d disk hits, want 0 executions", execs, disk)
	}
	return ""
}

// opTimeout bounds one accval invocation; the slowest takes ~4 s.
const opTimeout = 60 * time.Second

// runCLI drives a CLI workload for at least the given time, in whole
// cycles, and returns the op log.
func runCLI(ctx context.Context, b *bench, seconds time.Duration) (*opLog, error) {
	cycles := cliCycles(b.workload, b.seed)
	l := &opLog{}
	start := time.Now()
	for ci := 0; ci == 0 || time.Since(start) < seconds; ci++ {
		for _, op := range cycles[ci%len(cycles)] {
			if ctx.Err() != nil {
				return l, ctx.Err()
			}
			store := ""
			switch b.workload {
			case wCold:
				store = filepath.Join(b.work, fmt.Sprintf("cold-%d", l.attempted))
			case wWarm:
				store = b.store
			}
			res := runChild(ctx, opTimeout, b.root, b.accval(), op.args(b.jobs, store)...)
			checkCLI(l, b.golden, b.workload, op, res)
			if b.workload == wCold {
				if err := os.RemoveAll(store); err != nil {
					return l, err
				}
			}
		}
	}
	return l, nil
}
