// Command accgen expands the suite's test templates into standalone source
// files — the generation half of the paper's Fig. 3 infrastructure. Every
// feature yields a functional test and, where applicable, a cross test.
//
//	accgen -o ./generated -lang c -family data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"accv"
	"accv/internal/ast"
)

func main() {
	var (
		out    = flag.String("o", "generated", "output directory")
		lang   = flag.String("lang", "both", "language: c, fortran, or both")
		family = flag.String("family", "", "restrict to one feature family")
	)
	flag.Parse()

	langs, err := ast.ParseLangs(*lang)
	if err != nil {
		fatal(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	written := 0
	for _, tpl := range accv.AllTemplates() {
		if *family != "" && tpl.Family != *family {
			continue
		}
		keep := false
		for _, l := range langs {
			if tpl.Lang == l {
				keep = true
			}
		}
		if !keep {
			continue
		}
		functional, cross, hasCross, err := tpl.Generate()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", tpl.ID(), err))
		}
		ext := ".c"
		if tpl.Lang == accv.Fortran {
			ext = ".f90"
		}
		if err := os.WriteFile(filepath.Join(*out, tpl.Name+ext), []byte(functional), 0o644); err != nil {
			fatal(err)
		}
		written++
		if hasCross {
			if err := os.WriteFile(filepath.Join(*out, tpl.Name+".cross"+ext), []byte(cross), 0o644); err != nil {
				fatal(err)
			}
			written++
		}
	}
	fmt.Printf("accgen: wrote %d files to %s\n", written, *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accgen:", err)
	os.Exit(2)
}
