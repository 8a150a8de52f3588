// Package shard holds the out-of-process sweep workers: ProcWorker forks
// `accval shard-worker` subprocesses speaking JSON over stdio (ServeStdio
// is the child's side), and HTTPWorker dispatches to remote accvd
// instances via POST /v1/shard/run. Both implement sweep.Worker; the
// coordinator, the unit protocol, and the Executor every worker ends in
// live in internal/sweep, so a sharded sweep is sweep.Run with
// Options.Workers set, and its rendered Table I / Fig. 8 / CSV output is
// byte-identical to the in-process sweep.
//
// Workers share one persistent result store directory (Spec.StoreDir;
// internal/store's flock'd atomic writers make that safe), so the
// memo/store dedup applies across worker processes: a unit one worker
// already executed is a disk hit for every other worker, and a warm
// store re-runs the whole sweep without executing a single test. See
// docs/PERFORMANCE.md, "Sharded sweeps".
package shard
