// Command shadowlint runs the repo-specific determinism analyzers over
// the module. It is built only on the standard library (go/parser,
// go/ast, go/types, go/token) — no external analysis framework.
//
// Usage:
//
//	shadowlint [-json] [-list] [packages...]
//
// Package patterns are module-relative ("./...", "internal/wire",
// "./cmd/tracer"); the default is "./...". Analysis is whole-program:
// all packages load through one type-checker, then each is analyzed in
// turn; diagnostics print sorted by position. Exit status is 1 when any
// finding is reported, 2 on a load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"shadowmeter/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic object per line plus a summary line")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: shadowlint [-json] [-list] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fail(err)
	}
	loader, err := lint.Open(root)
	if err != nil {
		fail(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fail(err)
	}
	diags, err := lint.Run(loader, paths, analyzers)
	if err != nil {
		fail(err)
	}
	for _, d := range diags {
		if *jsonOut {
			rel := d.Pos.Filename
			if r, err := filepath.Rel(root, rel); err == nil {
				rel = r
			}
			obj := map[string]any{
				"file": rel, "line": d.Pos.Line, "col": d.Pos.Column,
				"analyzer": d.Analyzer, "message": d.Message,
			}
			if d.Root != "" {
				obj["root"] = d.Root
			}
			enc, err := json.Marshal(obj)
			if err != nil {
				fail(err)
			}
			fmt.Println(string(enc))
		} else {
			fmt.Println(d)
		}
	}
	if *jsonOut {
		enc, err := json.Marshal(map[string]any{
			"packages": len(paths), "analyzers": len(analyzers), "findings": len(diags),
		})
		if err != nil {
			fail(err)
		}
		fmt.Println(string(enc))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("shadowlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
