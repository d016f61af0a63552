// Package lint implements shadowlint, the repo-specific static-analysis
// pass that keeps the simulation deterministic. It is built only on the
// standard library's go/parser, go/ast, go/types, and go/token — the
// module is deliberately dependency-free.
//
// Analysis is whole-program: every requested package is loaded through
// one shared type-checker, a cross-package call graph is built over the
// result (see Program), and the analyzers then run over each package in
// turn. Diagnostics are reported sorted by position, so the output is
// deterministic.
//
// Ten analyzers ship today:
//
//   - simclock: no wall-clock calls (time.Now, time.Since, time.Sleep, …)
//     inside internal/* simulation packages; the world clock from
//     internal/core must be threaded instead.
//   - detrand: no global math/rand functions inside internal/*; inject a
//     seeded *rand.Rand so identical seeds replay identical worlds.
//   - droppederr: no error results discarded with `_ =` or left
//     unassigned in internal/*, with an allowlist for fmt.Fprintf-style
//     writers whose errors are conventionally ignored.
//   - sliceretain: wire decoders (internal/wire, internal/dnswire,
//     internal/httpwire, internal/tlswire) must not retain sub-slices of
//     the input buffer in returned structs without copying.
//   - rawprint: no fmt.Print*/log.Print* (or fmt.Fprint* to os.Stdout/
//     os.Stderr) in internal/* — simulation libraries report through
//     internal/telemetry, only cmd/* owns the process streams.
//   - hotalloc: no fmt.Sprintf in functions reachable (cross-package)
//     from a //shadowlint:hotpath root — the per-packet forwarding path
//     must not format strings.
//   - crossworld: state shared across concurrently instantiated trial
//     worlds (//shadowlint:shared types, package-level vars) must not be
//     written from //shadowlint:trialpath-reachable code; writes are
//     allowed only in //shadowlint:sharedinit constructors.
//   - eventloop: fields annotated //shadowlint:eventloop may be used
//     only in code reachable from a //shadowlint:eventloop dispatch
//     root, and never from goroutine-launched code.
//   - atomicpub: every os.Rename publish must be bracketed by fsync —
//     file sync before, directory sync after — and durable stores must
//     not use os.WriteFile in a package that also renames.
//   - metriclabel: telemetry CounterVec label values must come from
//     bounded sources (constants or //shadowlint:bounded declarations),
//     never per-packet strings.
//
// A finding can be suppressed with a trailing or preceding comment:
//
//	//shadowlint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported —
// as is a directive that no longer suppresses anything, so stale
// suppressions cannot linger after the code they excused is gone.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding at a concrete file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Root names the annotated root that makes the finding apply (the
	// //shadowlint:hotpath or //shadowlint:eventloop function the code is
	// reachable from). Empty for analyzers without reachability
	// provenance.
	Root string
}

// String renders the finding in the canonical
// "path:line:col: analyzer: message" format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package, with the
// whole-program facts available for cross-package reasoning.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters by module-relative package path ("internal/wire").
	// A nil Applies means the analyzer runs on every package.
	Applies func(relPath string) bool
	Run     func(prog *Program, p *Package) []Diagnostic
}

// All returns the full analyzer set in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Simclock, Detrand, DroppedErr, SliceRetain, RawPrint,
		HotAlloc, CrossWorld, EventLoop, AtomicPub, MetricLabel,
	}
}

// inInternal reports whether relPath is under the module's internal/
// tree — the simulation packages the determinism analyzers police.
// cmd/* and examples/* are exempt: they run on the real network.
func inInternal(relPath string) bool {
	return relPath == "internal" || strings.HasPrefix(relPath, "internal/")
}

// Run loads every import path through the shared loader, builds the
// whole-program call graph once, and applies the analyzers to each
// package in turn. Findings covered by //shadowlint:ignore directives
// are dropped, and a directive that covers nothing becomes a finding
// itself. Diagnostics come back sorted by file, line, column, analyzer,
// message.
func Run(l *Loader, importPaths []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	targets := make([]*Package, 0, len(importPaths))
	seen := make(map[string]bool, len(importPaths))
	for _, path := range importPaths {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if !seen[p.Path] {
			seen[p.Path] = true
			targets = append(targets, p)
		}
	}
	prog := NewProgram(l)

	var diags []Diagnostic
	for _, p := range targets {
		diags = append(diags, analyzePackage(prog, p, analyzers, known)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// analyzePackage runs every applicable analyzer over one package,
// filters the findings through the package's suppression directives,
// and reports malformed, misplaced, and dead directives.
func analyzePackage(prog *Program, p *Package, analyzers []*Analyzer, known map[string]bool) []Diagnostic {
	sup, malformed := collectSuppressions(p, known)
	diags := append([]Diagnostic(nil), malformed...)
	diags = append(diags, prog.directiveDiags[p.Path]...)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(p.RelPath) {
			continue
		}
		ran[a.Name] = true
		for _, d := range a.Run(prog, p) {
			if sup.covers(a.Name, d.Pos) {
				continue
			}
			diags = append(diags, d)
		}
	}
	diags = append(diags, sup.dead(ran)...)
	return diags
}

const ignorePrefix = "shadowlint:ignore"

// supEntry is one //shadowlint:ignore directive with a hit counter, so
// directives that stop suppressing anything can be reported as stale.
type supEntry struct {
	pos       token.Position
	analyzers []string // analyzer names, possibly including "all"
	hits      int
}

// suppressions indexes a package's directives by the lines they cover.
// A directive covers its own line and the following one, so both
// trailing comments and a comment line directly above the offending
// statement work.
type suppressions struct {
	entries []*supEntry
	byLine  map[string]map[int][]*supEntry
}

func newSuppressions() *suppressions {
	return &suppressions{byLine: make(map[string]map[int][]*supEntry)}
}

func (s *suppressions) covers(analyzer string, pos token.Position) bool {
	covered := false
	for _, e := range s.byLine[pos.Filename][pos.Line] {
		for _, name := range e.analyzers {
			if name == analyzer || name == "all" {
				e.hits++
				covered = true
			}
		}
	}
	return covered
}

func (s *suppressions) add(file string, line int, pos token.Position, analyzers []string) {
	e := &supEntry{pos: pos, analyzers: analyzers}
	s.entries = append(s.entries, e)
	if s.byLine[file] == nil {
		s.byLine[file] = make(map[int][]*supEntry)
	}
	for _, l := range []int{line, line + 1} {
		s.byLine[file][l] = append(s.byLine[file][l], e)
	}
}

// dead reports directives that suppressed nothing this run. Only
// directives naming an analyzer that actually ran on the package (or
// "all") are judged — a subset run must not condemn directives for
// analyzers it skipped.
func (s *suppressions) dead(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range s.entries {
		if e.hits > 0 {
			continue
		}
		judged := false
		for _, name := range e.analyzers {
			if name == "all" || ran[name] {
				judged = true
				break
			}
		}
		if !judged {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      e.pos,
			Analyzer: "shadowlint",
			Message: fmt.Sprintf("stale suppression: //shadowlint:ignore %s no longer suppresses anything; delete it",
				strings.Join(e.analyzers, ",")),
		})
	}
	return out
}

// collectSuppressions scans a package's comments for
// //shadowlint:ignore directives. Malformed directives — no analyzer,
// an unknown analyzer name, or a missing reason — are returned as
// diagnostics of the pseudo-analyzer "shadowlint" so they cannot
// silently disable anything.
func collectSuppressions(p *Package, known map[string]bool) (*suppressions, []Diagnostic) {
	sup := newSuppressions()
	var malformed []Diagnostic
	bad := func(pos token.Pos, msg string) {
		malformed = append(malformed, Diagnostic{
			Pos: p.Fset.Position(pos), Analyzer: "shadowlint", Message: msg,
		})
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad(c.Pos(), "malformed suppression: want //shadowlint:ignore <analyzer> <reason>")
					continue
				}
				if len(fields) < 2 {
					bad(c.Pos(), fmt.Sprintf("suppression for %q is missing a reason", fields[0]))
					continue
				}
				pos := p.Fset.Position(c.Pos())
				names := strings.Split(fields[0], ",")
				ok := true
				for _, name := range names {
					if name != "all" && !known[name] {
						bad(c.Pos(), fmt.Sprintf("suppression names unknown analyzer %q", name))
						ok = false
					}
				}
				if !ok {
					continue
				}
				sup.add(pos.Filename, pos.Line, pos, names)
			}
		}
	}
	return sup, malformed
}

// diag is a small helper used by the analyzers.
func diag(p *Package, pos token.Pos, analyzer, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// rootedDiag is diag plus reachability provenance.
func rootedDiag(p *Package, pos token.Pos, analyzer, root, format string, args ...any) Diagnostic {
	d := diag(p, pos, analyzer, format, args...)
	d.Root = root
	return d
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
