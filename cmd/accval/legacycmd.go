// The legacy flat-flag shim: `accval -compiler pgi -sweep` still works,
// routed through the same exec functions as the subcommands so its
// stdout stays byte-identical (pinned by cli_test.go). Only dispatch
// prints the deprecation notice, and only to stderr.
package main

import (
	"fmt"
	"io"

	"accv"
	"accv/internal/ast"
)

func cmdLegacy(argv []string, stdout, stderr io.Writer) int {
	var f cliFlags
	fs := newFlagSet("accval", stderr)
	f.registerCommon(fs)
	f.registerReport(fs)
	fs.BoolVar(&f.sweep, "sweep", false, "run every simulated version of the compiler (pass-rate table)")
	fs.BoolVar(&f.matrix, "matrix", false, "print the feature × compiler pass/fail matrix (the table §VI omits)")
	fs.BoolVar(&f.list, "list", false, "list registered test features and exit")
	fs.BoolVar(&f.bugs, "bugs", false, "print the compiler's bug database (the ground truth behind Table I)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	observer, err := f.observer()
	if err != nil {
		return fail(stderr, err)
	}

	if f.bugs {
		return printBugs(&f, stdout, stderr)
	}
	if f.list {
		printFeatures(stdout)
		return 0
	}
	if f.sweep {
		return execSweep(&f, observer, stdout, stderr)
	}
	if f.matrix {
		return runMatrix(&f, stdout, stderr)
	}
	return execSuite(&f, observer, stdout, stderr)
}

// printBugs renders the vendor's bug database — Table I's ground truth.
func printBugs(f *cliFlags, stdout, stderr io.Writer) int {
	db := accv.BugDatabase(f.compiler)
	if db == nil {
		return fail(stderr, fmt.Errorf("no bug database for %q (want caps, pgi, or cray)", f.compiler))
	}
	fmt.Fprintf(stdout, "%s bug database: %d entries\n\n", f.compiler, len(db))
	fmt.Fprintf(stdout, "%-34s %-8s %-11s %-10s %s\n", "id", "lang", "introduced", "fixed-in", "title")
	for _, b := range db {
		intro, fixed := b.Introduced, b.FixedIn
		if intro == "" {
			intro = "(first)"
		}
		if fixed == "" {
			fixed = "(never)"
		}
		fmt.Fprintf(stdout, "%-34s %-8s %-11s %-10s %s\n", b.ID, b.Lang, intro, fixed, b.Title)
	}
	return 0
}

// printFeatures lists the registered test features by family.
func printFeatures(stdout io.Writer) {
	for _, fam := range accv.Families() {
		fmt.Fprintf(stdout, "%s:\n", fam)
		for _, t := range accv.AllTemplates() {
			if t.Family == fam && t.Lang == accv.C {
				fmt.Fprintf(stdout, "  %-36s %s\n", t.Name, t.Description)
			}
		}
	}
}

// runMatrix prints the per-feature pass/fail table against the three
// vendor compilers — the "tabular column" §VI describes but omits for
// space.
func runMatrix(f *cliFlags, stdout, stderr io.Writer) int {
	langs, err := ast.ParseLangs(f.lang)
	if err != nil {
		return fail(stderr, err)
	}
	lang := langs[0]
	var compilers []accv.Compiler
	for _, v := range accv.Vendors() {
		ver := f.version
		if ver == "" {
			vs := accv.Versions(v)
			ver = vs[len(vs)-1]
		}
		tc, err := accv.NewCompiler(v, ver)
		if err != nil {
			return fail(stderr, err)
		}
		compilers = append(compilers, tc)
	}

	var runnerOpts []accv.Option
	if f.family != "" {
		runnerOpts = append(runnerOpts, accv.WithFamily(f.family))
	}
	r, err := accv.NewRunner(lang, runnerOpts...)
	if err != nil {
		return fail(stderr, err)
	}
	tpls := r.Templates()

	fmt.Fprintf(stdout, "Feature × compiler matrix (%s tests)\n\n", lang)
	fmt.Fprintf(stdout, "%-36s", "feature")
	for _, tc := range compilers {
		fmt.Fprintf(stdout, "  %-14s", tc.Name()+" "+tc.Version())
	}
	fmt.Fprintln(stdout)
	for _, tpl := range tpls {
		fmt.Fprintf(stdout, "%-36s", tpl.Name)
		for _, tc := range compilers {
			res := accv.RunTest(tc, tpl, f.iterations)
			cell := "pass"
			if res.Outcome.Failed() {
				cell = "FAIL(" + shortOutcome(res.Outcome.String()) + ")"
			}
			fmt.Fprintf(stdout, "  %-14s", cell)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// shortOutcome abbreviates outcome names for matrix cells.
func shortOutcome(s string) string {
	switch s {
	case "compilation error":
		return "compile"
	case "incorrect results":
		return "wrong"
	case "time out":
		return "hang"
	case "vet findings":
		return "vet"
	}
	return s
}
