// The sweep's out-of-process workers (`accval sweep -shards N` /
// `-workers URLS`) and the hidden `accval shard-worker` verb the forked
// workers run. The coordinator lives in internal/sweep; this file only
// maps flags onto workers, and execSweep renders every sweep the same
// way, so sharded stdout is byte-identical (docs/PERFORMANCE.md,
// "Sharded sweeps").
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"accv/internal/shard"
	"accv/internal/sweep"
)

// shardWorkerArgv yields the argv forked shard workers run; the CLI
// tests substitute the test binary's re-exec helper.
var shardWorkerArgv = func() ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return []string{exe, "shard-worker"}, nil
}

// shardWorkerEnv yields the forked workers' environment (nil: inherit).
var shardWorkerEnv = func() []string { return nil }

// addWorkers points opts at the out-of-process workers -workers or
// -shards asks for; with neither, the sweep runs in-process.
func (f *cliFlags) addWorkers(opts *sweep.Options) error {
	if f.workers != "" {
		for _, base := range strings.Split(f.workers, ",") {
			if base = strings.TrimSpace(base); base != "" {
				opts.Workers = append(opts.Workers, shard.NewHTTPWorker(base, nil))
			}
		}
		if len(opts.Workers) == 0 {
			return fmt.Errorf("-workers %q names no worker URLs", f.workers)
		}
		return nil // without -j, remote daemons size their own parallelism
	}
	if f.shards <= 0 {
		return nil
	}
	argv, err := shardWorkerArgv()
	if err != nil {
		return err
	}
	env := shardWorkerEnv()
	for range f.shards {
		opts.Workers = append(opts.Workers, shard.NewProcWorker(argv, env))
	}
	opts.Factory = shard.ProcFactory(argv, env)
	// Forked workers share this host, so they split its -j budget
	// (default GOMAXPROCS, as in-process).
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	return nil
}

// cmdShardWorker is the hidden worker verb: serve shard units over
// stdin/stdout until the coordinator closes the pipe. Everything the
// worker needs (store directory, run shape) arrives in each request's
// Spec, so the verb takes no flags.
func cmdShardWorker(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintln(stderr, "accval shard-worker: takes no arguments (it is forked by `accval sweep -shards`)")
		return 2
	}
	if err := shard.ServeStdio(os.Stdin, stdout, sweep.NewExecutor(sweep.ExecOptions{})); err != nil {
		fmt.Fprintln(stderr, "accval shard-worker:", err)
		return 1
	}
	return 0
}
