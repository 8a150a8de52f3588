// The `accval sweep` subcommand: the Fig. 8 cross-version sweep, with
// the persistent result store (-store) keeping executions warm across
// processes and -snapshot-dir feeding `accval diff`.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"accv"
	"accv/internal/sweep"
)

func cmdSweep(args []string, stdout, stderr io.Writer) int {
	var f cliFlags
	fs := newFlagSet("accval sweep", stderr)
	f.registerCommon(fs)
	f.registerStore(fs)
	f.registerShard(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	observer, err := f.observer()
	if err != nil {
		return fail(stderr, err)
	}
	return execSweep(&f, observer, stdout, stderr)
}

// execSweep runs the memoized cross-version sweep — in-process, or
// fanned out over forked (-shards) or remote (-workers) workers — and
// prints the legacy pass-rate table; the flat-flag -sweep form funnels
// through it too, so the table bytes cannot drift (cli_test.go). Store
// telemetry goes to stderr only, keeping stdout identical with and
// without -store.
func execSweep(f *cliFlags, observer *accv.Observer, stdout, stderr io.Writer) int {
	opts, err := f.sweepOptions(observer)
	if err != nil {
		return fail(stderr, err)
	}
	res, err := sweep.Run(context.Background(), f.compiler, opts)
	if err != nil {
		return fail(stderr, err)
	}
	printSweepTable(stdout, f.compiler, res)
	if f.store != "" {
		fmt.Fprintf(stderr, "accval: store %s: %d disk hits, %d memo hits, %d executions this sweep\n",
			f.store, res.StoreHits, res.MemoHits, res.MemoMisses)
	}
	if f.snapshotDir != "" {
		if err := writeSweepSnapshots(f.snapshotDir, res); err != nil {
			return fail(stderr, err)
		}
	}
	if err := f.exportObs(observer, stdout); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// printSweepTable renders the Fig. 8 pass-rate table — byte-identical to
// the historical flat-flag output.
func printSweepTable(w io.Writer, vendor string, res *accv.SweepResult) {
	fmt.Fprintf(w, "Pass rate (%%) by %s version — Fig. 8 reproduction\n\n", vendor)
	fmt.Fprintf(w, "%-10s", "version")
	for _, l := range res.Langs {
		fmt.Fprintf(w, "  %10s", l.String()+" test")
	}
	fmt.Fprintln(w)
	for vi, ver := range res.Versions {
		fmt.Fprintf(w, "%-10s", ver)
		for li := range res.Langs {
			fmt.Fprintf(w, "  %9.1f%%", res.Cells[vi][li].PassRate())
		}
		fmt.Fprintln(w)
	}
}

// writeSweepSnapshots writes one release snapshot per swept
// (version, lang) cell into dir, named <vendor>-<version>-<lang>.json —
// the inputs `accval diff` compares across releases.
func writeSweepSnapshots(dir string, res *accv.SweepResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for vi, ver := range res.Versions {
		for li, l := range res.Langs {
			cell := res.Cells[vi][li]
			if cell == nil {
				continue
			}
			name := fmt.Sprintf("%s-%s-%s.json", res.Vendor, ver, l)
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			if err := accv.WriteSnapshot(f, accv.SnapshotOf(cell)); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
