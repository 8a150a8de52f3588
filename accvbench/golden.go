package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"accv/internal/ast"
)

// The golden verdicts every timed and traced run is checked against.
// They are produced by the tree engine — the reference interpreter,
// never the engine under test — with `accvbench -regen-golden`:
//
//	golden/run/<compiler>-<version>.csv  accval run -lang both -format csv
//	golden/sweep/<vendor>.txt            accval sweep -lang both stdout
//
// CSV rows carry no durations, so the files are byte-stable.

// csvRow is one parsed verdict row of a run golden.
type csvRow struct {
	Test, Family, Outcome string
	Lang                  ast.Lang
	VetFindings           int
	Line                  string // the raw row, without newline
}

// golden holds the committed verdicts.
type golden struct {
	runs   map[string][]byte   // release key → accval run -format csv stdout
	rows   map[string][]csvRow // release key → parsed rows
	header string
	sweeps map[string][]byte // vendor → accval sweep stdout
}

func goldenDir(root string) string { return filepath.Join(root, "accvbench", "golden") }

// loadGolden reads and parses every golden file.
func loadGolden(root string) (*golden, error) {
	g := &golden{runs: map[string][]byte{}, rows: map[string][]csvRow{}, sweeps: map[string][]byte{}}
	dir := goldenDir(root)
	for _, r := range allReleases() {
		b, err := os.ReadFile(filepath.Join(dir, "run", r.key()+".csv"))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		rows, header, err := parseCSV(b)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", r.key(), err)
		}
		g.runs[r.key()], g.rows[r.key()], g.header = b, rows, header
	}
	for _, v := range sweepVendors {
		b, err := os.ReadFile(filepath.Join(dir, "sweep", v+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		g.sweeps[v] = b
	}
	return g, nil
}

// parseCSV parses accval's CSV report: one header line per language
// section, then one row per test.
func parseCSV(b []byte) (rows []csvRow, header string, err error) {
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		if strings.HasPrefix(line, "compiler,") {
			header = line
			continue
		}
		// The detail column is last and the only one that may hold
		// commas, so splitting off the first 14 columns is exact.
		f := strings.SplitN(line, ",", 15)
		if len(f) != 15 {
			return nil, "", fmt.Errorf("malformed row %q", line)
		}
		lang := ast.LangC
		if f[3] == ast.LangFortran.String() {
			lang = ast.LangFortran
		}
		vet, err := strconv.Atoi(f[13])
		if err != nil {
			return nil, "", fmt.Errorf("row %q: vet_findings: %w", line, err)
		}
		rows = append(rows, csvRow{Test: f[2], Lang: lang, Family: f[4],
			Outcome: strings.Trim(f[5], `"`), VetFindings: vet, Line: line})
	}
	if header == "" {
		return nil, "", fmt.Errorf("no header")
	}
	return rows, header, nil
}

// verdictColumns are the CSV columns that make up a verdict: release,
// test, outcome, functional runs and failures, cross runs and vet
// findings. The rest are measurements that need not repeat. The cross
// statistics (cross_fails, p, certainty, inconclusive) count how many
// runs of a cross variant failed, and a racing cross variant can be seen
// failing on fewer of them; the detail text of a miscompiled kernel that
// indexes out of bounds names whichever lane faulted first ("index 8"
// or "index 9 out of range").
var verdictColumns = []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 13}

// verdictOf strips a CSV row to its verdict columns.
func verdictOf(row string) string {
	f := strings.SplitN(row, ",", 15)
	var v []string
	for _, i := range verdictColumns {
		if i < len(f) {
			v = append(v, f[i])
		}
	}
	return strings.Join(v, ",")
}

// compareRows compares a CSV report with its golden row by row. It
// returns how many rows carry a different verdict (counting missing and
// extra rows) and how many differ only outside their verdict columns.
func compareRows(got, want []byte) (verdictDiffs, otherDiffs int) {
	g := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	w := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		switch {
		case g[i] == w[i]:
		case verdictOf(g[i]) != verdictOf(w[i]):
			verdictDiffs++
		default:
			otherDiffs++
		}
	}
	if len(g) > len(w) {
		verdictDiffs += len(g) - len(w)
	} else {
		verdictDiffs += len(w) - len(g)
	}
	if len(got) > 0 && got[len(got)-1] != '\n' {
		verdictDiffs++ // a truncated report
	}
	return verdictDiffs, otherDiffs
}

// verdictsOnly strips every row of a CSV report to its verdict columns.
func verdictsOnly(csv []byte) string {
	rows := strings.Split(string(csv), "\n")
	for i := range rows {
		rows[i] = verdictOf(rows[i])
	}
	return strings.Join(rows, "\n")
}

// firstDiff shows the first row where got and want differ in verdict.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if verdictOf(a) != verdictOf(b) {
			return fmt.Sprintf("got %q, golden %q", a, b)
		}
	}
	return "none"
}

// failing reports whether a release has any failing verdict — accval
// run then exits 1.
func (g *golden) failing(r release) bool {
	for _, row := range g.rows[r.key()] {
		if row.Outcome != "pass" {
			return true
		}
	}
	return false
}

// verdicts is the number of verdicts of one release run (both langs).
func (g *golden) verdicts(r release) int { return len(g.rows[r.key()]) }

// sweepVerdicts is the number of verdicts one full vendor sweep serves.
func (g *golden) sweepVerdicts(vendor string) int {
	n := 0
	for _, r := range allReleases() {
		if r.Compiler == vendor {
			n += g.verdicts(r)
		}
	}
	return n
}

// passing lists the templates of a language whose verdict on the
// release is pass.
func (g *golden) passing(r release, lang ast.Lang) []string {
	var out []string
	for _, row := range g.rows[r.key()] {
		if row.Lang == lang && row.Outcome == "pass" {
			out = append(out, row.Test)
		}
	}
	return out
}

// row finds one template's verdict row.
func (g *golden) row(r release, lang ast.Lang, test string) (csvRow, bool) {
	for _, row := range g.rows[r.key()] {
		if row.Lang == lang && row.Test == test {
			return row, true
		}
	}
	return csvRow{}, false
}

// familyCSV is the CSV report accval (or accvd) writes for a suite
// restricted to one language and family.
func (g *golden) familyCSV(r release, lang ast.Lang, family string) []byte {
	var b strings.Builder
	b.WriteString(g.header + "\n")
	for _, row := range g.rows[r.key()] {
		if row.Lang == lang && (family == "" || row.Family == family) {
			b.WriteString(row.Line + "\n")
		}
	}
	return []byte(b.String())
}

// cellCounts is the (total, passed) of one sweep cell: a release over one
// language and, when family is set, one family.
func (g *golden) cellCounts(r release, lang ast.Lang, family string) (total, passed int) {
	for _, row := range g.rows[r.key()] {
		if row.Lang == lang && (family == "" || row.Family == family) {
			total++
			if row.Outcome == "pass" {
				passed++
			}
		}
	}
	return total, passed
}

// regenGolden rewrites the golden files by running the freshly built
// accval with -engine tree over every release and vendor.
func regenGolden(ctx context.Context, root, accval string, jobs int) error {
	dir := goldenDir(root)
	for _, sub := range []string{"run", "sweep"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	for _, r := range allReleases() {
		args := append(cliOp{Kind: "run", Release: r}.args(jobs, ""), "-engine", "tree")
		res := runChild(ctx, 0, root, accval, args...)
		if res.Err != nil || res.Exit > 1 {
			return fmt.Errorf("regen %s: exit %d: %v: %s", r.key(), res.Exit, res.Err, res.Stderr)
		}
		if err := os.WriteFile(filepath.Join(dir, "run", r.key()+".csv"), res.Stdout, 0o644); err != nil {
			return err
		}
		fmt.Printf("golden run/%s.csv (%s)\n", r.key(), res.Wall.Round(1e6))
	}
	for _, v := range sweepVendors {
		args := append(cliOp{Kind: "sweep", Vendor: v}.args(jobs, ""), "-engine", "tree")
		res := runChild(ctx, 0, root, accval, args...)
		if res.Err != nil || res.Exit != 0 {
			return fmt.Errorf("regen sweep %s: exit %d: %v: %s", v, res.Exit, res.Err, res.Stderr)
		}
		if err := os.WriteFile(filepath.Join(dir, "sweep", v+".txt"), res.Stdout, 0o644); err != nil {
			return err
		}
		fmt.Printf("golden sweep/%s.txt (%s)\n", v, res.Wall.Round(1e6))
	}
	return nil
}
