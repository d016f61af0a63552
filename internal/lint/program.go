package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive names recognized on declarations (besides the suppression
// form //shadowlint:ignore, which is handled by the engine itself).
// Each attaches to a specific declaration kind:
//
//	hotpath    (func)  per-packet hot-path root for hotalloc
//	eventloop  (func)  event-loop dispatch root for eventloop
//	eventloop  (field) field confined to the event-loop goroutine
//	trialpath  (func)  per-trial code root for crossworld
//	shared     (type)  structure shared across concurrent trial worlds
//	sharedinit (func)  construction-time writer of a shared structure
//	bounded    (field, func, var) label source drawn from a bounded set
const (
	dirHotpath    = "hotpath"
	dirEventloop  = "eventloop"
	dirTrialpath  = "trialpath"
	dirShared     = "shared"
	dirSharedInit = "sharedinit"
	dirBounded    = "bounded"
)

// funcDirectives, fieldDirectives, typeDirectives, varDirectives say
// which directives may attach to which declaration kind.
var (
	funcDirectives  = map[string]bool{dirHotpath: true, dirEventloop: true, dirTrialpath: true, dirSharedInit: true, dirBounded: true}
	fieldDirectives = map[string]bool{dirEventloop: true, dirBounded: true}
	typeDirectives  = map[string]bool{dirShared: true}
	varDirectives   = map[string]bool{dirBounded: true}
)

// Node is one function in the whole-program call graph: a declared
// function or method, or a function literal.
type Node struct {
	Obj  types.Object  // declared func/method; nil for literals
	Lit  *ast.FuncLit  // literal; nil for declarations
	Pkg  *Package      // package containing the body
	Decl *ast.FuncDecl // enclosing declaration (the literal's host for Lit nodes)

	calls []*Node // static edges: direct calls, concrete methods, enclosed literals
	dyn   []*Node // dynamic edges: interface dispatch + signature-matched func values

	goLaunched bool // the function itself is the target of a go statement
	syncsFile  bool // body contains a direct (*os.File).Sync call
}

// Name renders the node for diagnostics.
func (n *Node) Name() string {
	if n.Obj != nil {
		return n.Obj.Name()
	}
	if n.Decl != nil {
		return "func literal in " + n.Decl.Name.Name
	}
	return "func literal"
}

// Program is the whole-program analysis state shared by every analyzer:
// all packages loaded through one type-checker (the shared type-fact
// cache), the cross-package call graph, the directive index, and the
// precomputed reachability sets. It is immutable once built.
type Program struct {
	Loader *Loader
	// Pkgs is every module-local package the loader has seen — analysis
	// targets and their dependencies — sorted by import path.
	Pkgs []*Package

	nodes   map[types.Object]*Node
	litNode map[*ast.FuncLit]*Node
	ordered []*Node // deterministic construction order

	// dirs maps any annotated object (func, struct field, type name,
	// package var) to its shadowlint directives.
	dirs map[types.Object][]string

	// hot/loop/trial map each reachable node to the root it was first
	// discovered from. hot and trial use static edges only; loop follows
	// dynamic edges too, because event-loop work is dispatched through
	// interfaces (netsim.Handler, netsim.Tap) and scheduled closures.
	hot   map[*Node]*Node
	loop  map[*Node]*Node
	trial map[*Node]*Node

	// syncers holds functions that (transitively, via static calls)
	// invoke (*os.File).Sync — what atomicpub accepts as a durability
	// barrier around an os.Rename publish.
	syncers map[*Node]bool

	// directiveDiags holds unknown/misplaced-directive findings keyed by
	// import path; the engine appends them to that package's report.
	directiveDiags map[string][]Diagnostic
}

// NewProgram builds the whole-program state over every package the
// loader has loaded so far (targets plus dependencies). Call it after
// loading the analysis targets.
func NewProgram(l *Loader) *Program {
	prog := &Program{
		Loader:         l,
		nodes:          make(map[types.Object]*Node),
		litNode:        make(map[*ast.FuncLit]*Node),
		dirs:           make(map[types.Object][]string),
		syncers:        make(map[*Node]bool),
		directiveDiags: make(map[string][]Diagnostic),
	}
	for _, p := range l.pkgs {
		prog.Pkgs = append(prog.Pkgs, p)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })

	for _, p := range prog.Pkgs {
		prog.collectDirectives(p)
	}
	b := &graphBuilder{prog: prog}
	for _, p := range prog.Pkgs {
		b.declareNodes(p)
	}
	for _, p := range prog.Pkgs {
		b.buildEdges(p)
	}
	b.resolveDynamic()
	prog.hot = prog.reach(dirHotpath, false)
	prog.loop = prog.reach(dirEventloop, true)
	prog.trial = prog.reach(dirTrialpath, false)
	prog.computeSyncers()
	return prog
}

// HasDirective reports whether obj's declaration carries the directive.
func (prog *Program) HasDirective(obj types.Object, dir string) bool {
	for _, d := range prog.dirs[obj] {
		if d == dir {
			return true
		}
	}
	return false
}

// FuncNode returns the graph node of a declared function, or nil.
func (prog *Program) FuncNode(obj types.Object) *Node { return prog.nodes[obj] }

// LitNode returns the graph node of a function literal, or nil.
func (prog *Program) LitNode(lit *ast.FuncLit) *Node { return prog.litNode[lit] }

// HotRoot reports the hotpath root a node is reachable from (static
// edges), or nil.
func (prog *Program) HotRoot(n *Node) *Node { return prog.hot[n] }

// LoopRoot reports the event-loop root a node is reachable from
// (static + dynamic edges), or nil.
func (prog *Program) LoopRoot(n *Node) *Node { return prog.loop[n] }

// TrialRoot reports the trial-path root a node is reachable from
// (static edges), or nil.
func (prog *Program) TrialRoot(n *Node) *Node { return prog.trial[n] }

// Syncs reports whether the node transitively calls (*os.File).Sync.
func (prog *Program) Syncs(n *Node) bool { return prog.syncers[n] }

// reach runs BFS from every function annotated with dir, remembering
// the root each node was discovered from. Node order and edge order are
// both deterministic, so root attribution is stable across runs.
func (prog *Program) reach(dir string, dynamic bool) map[*Node]*Node {
	via := make(map[*Node]*Node)
	var queue []*Node
	for _, n := range prog.ordered {
		if n.Obj != nil && prog.HasDirective(n.Obj, dir) {
			via[n] = n
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		edges := cur.calls
		if dynamic {
			edges = append(append([]*Node(nil), cur.calls...), cur.dyn...)
		}
		for _, next := range edges {
			if _, seen := via[next]; !seen {
				via[next] = via[cur]
				queue = append(queue, next)
			}
		}
	}
	return via
}

// computeSyncers propagates the "calls (*os.File).Sync" fact backwards
// over static edges to a fixpoint.
func (prog *Program) computeSyncers() {
	for _, n := range prog.ordered {
		if n.syncsFile {
			prog.syncers[n] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.ordered {
			if prog.syncers[n] {
				continue
			}
			for _, c := range n.calls {
				if prog.syncers[c] {
					prog.syncers[n] = true
					changed = true
					break
				}
			}
		}
	}
}

// collectDirectives walks a package's declarations, attaching directive
// comments to their objects and reporting unknown or misplaced ones.
func (prog *Program) collectDirectives(p *Package) {
	consumed := make(map[token.Pos]bool)
	attach := func(obj types.Object, cg *ast.CommentGroup, allowed map[string]bool, where string) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			name, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			consumed[c.Pos()] = true
			if !allowed[name] {
				prog.directiveDiags[p.Path] = append(prog.directiveDiags[p.Path], diag(p, c.Pos(),
					"shadowlint", "directive //shadowlint:%s does not apply to a %s declaration", name, where))
				continue
			}
			if obj != nil {
				prog.dirs[obj] = append(prog.dirs[obj], name)
			}
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				attach(p.Info.Defs[d.Name], d.Doc, funcDirectives, "function")
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						obj := p.Info.Defs[s.Name]
						attach(obj, s.Doc, typeDirectives, "type")
						if len(d.Specs) == 1 {
							attach(obj, d.Doc, typeDirectives, "type")
						}
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, name := range field.Names {
									attach(p.Info.Defs[name], field.Doc, fieldDirectives, "struct field")
									attach(p.Info.Defs[name], field.Comment, fieldDirectives, "struct field")
								}
							}
						}
					case *ast.ValueSpec:
						var obj types.Object
						if len(s.Names) > 0 {
							obj = p.Info.Defs[s.Names[0]]
						}
						attach(obj, s.Doc, varDirectives, "variable")
						if len(d.Specs) == 1 {
							attach(obj, d.Doc, varDirectives, "variable")
						}
					}
				}
			}
		}
		// Any directive comment not consumed above floats free of a
		// declaration it could annotate — report it so annotations cannot
		// silently rot.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok || consumed[c.Pos()] {
					continue
				}
				prog.directiveDiags[p.Path] = append(prog.directiveDiags[p.Path], diag(p, c.Pos(),
					"shadowlint", "directive //shadowlint:%s is not attached to a declaration that accepts it", name))
			}
		}
	}
}

// parseDirective extracts the name of a //shadowlint:<name> directive
// comment. The suppression form (ignore) and unrelated comments return
// false. Unknown names are returned as-is so the caller can report them
// via the allowed-set check.
func parseDirective(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//shadowlint:")
	if !ok {
		return "", false
	}
	name := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name = rest[:i]
	}
	if name == "ignore" || name == "" {
		return "", false
	}
	return name, true
}

// graphBuilder accumulates the call graph over all packages.
type graphBuilder struct {
	prog *Program

	// dynamic-resolution worklists, collected during buildEdges and
	// resolved once all packages are walked.
	ifaceCalls []ifaceCall
	sigCalls   []sigCall
	funcVals   []*Node // address-taken declared functions and all literals

	// pendingGoLits holds go-launched literals whose nodes did not exist
	// yet when the GoStmt was visited (pre-order traversal reaches the
	// statement before the literal).
	pendingGoLits []*ast.FuncLit
}

type ifaceCall struct {
	from   *Node
	method *types.Func
}

type sigCall struct {
	from *Node
	sig  *types.Signature
}

// declareNodes creates a node per function declaration.
func (b *graphBuilder) declareNodes(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := p.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			n := &Node{Obj: obj, Pkg: p, Decl: fd}
			b.prog.nodes[obj] = n
			b.prog.ordered = append(b.prog.ordered, n)
		}
	}
}

// buildEdges walks every function body, creating literal nodes and
// recording static edges plus the dynamic-resolution worklists.
func (b *graphBuilder) buildEdges(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root := b.prog.nodes[p.Info.Defs[fd.Name]]
			if root == nil {
				continue
			}
			b.walkBody(p, root, fd)
		}
	}
}

// walkBody traverses one declaration, attributing calls to the innermost
// enclosing function (declaration or literal).
func (b *graphBuilder) walkBody(p *Package, root *Node, fd *ast.FuncDecl) {
	// Pre-pass: the expressions that appear in call position, so function
	// references elsewhere can be recognized as address-taken values.
	callFun := make(map[ast.Node]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch fun := unparen(call.Fun).(type) {
			case *ast.Ident:
				callFun[fun] = true
			case *ast.SelectorExpr:
				callFun[fun.Sel] = true
			}
		}
		return true
	})

	cur := root
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if lit, ok := top.(*ast.FuncLit); ok {
				cur = b.enclosingOf(root, lit, stack)
			}
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.FuncLit:
			lit := &Node{Lit: x, Pkg: p, Decl: fd}
			b.prog.litNode[x] = lit
			b.prog.ordered = append(b.prog.ordered, lit)
			// The enclosing function conservatively reaches its literals.
			cur.calls = append(cur.calls, lit)
			b.funcVals = append(b.funcVals, lit)
			cur = lit
		case *ast.GoStmt:
			b.markGoTarget(p, x)
		case *ast.CallExpr:
			b.recordCall(p, cur, x)
		case *ast.Ident:
			if !callFun[x] {
				if fn, ok := p.Info.Uses[x].(*types.Func); ok {
					if target := b.prog.nodes[fn]; target != nil {
						b.funcVals = append(b.funcVals, target)
					}
				}
			}
		}
		return true
	})
}

// enclosingOf finds the node to restore after leaving lit: the nearest
// literal still on the stack, else the declaration's node.
func (b *graphBuilder) enclosingOf(root *Node, lit *ast.FuncLit, stack []ast.Node) *Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if l, ok := stack[i].(*ast.FuncLit); ok {
			return b.prog.litNode[l]
		}
	}
	return root
}

// markGoTarget flags the function a go statement launches.
func (b *graphBuilder) markGoTarget(p *Package, g *ast.GoStmt) {
	switch fun := unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		// Pre-order traversal visits the GoStmt before the literal, so the
		// literal's node may not exist yet; defer the flag to resolve time.
		if n := b.prog.litNode[fun]; n != nil {
			n.goLaunched = true
		} else {
			b.pendingGoLits = append(b.pendingGoLits, fun)
		}
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			if n := b.prog.nodes[fn]; n != nil {
				n.goLaunched = true
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			if n := b.prog.nodes[fn]; n != nil {
				n.goLaunched = true
			}
		}
	}
}

// recordCall classifies one call expression: static edge, interface
// dispatch, or indirect function-value call.
func (b *graphBuilder) recordCall(p *Package, from *Node, call *ast.CallExpr) {
	fun := unparen(call.Fun)
	// Type conversions are not calls.
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		return
	}
	switch x := fun.(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[x].(type) {
		case *types.Func:
			if target := b.prog.nodes[obj]; target != nil {
				from.calls = append(from.calls, target)
			} else if isOSFileSync(obj) {
				from.syncsFile = true
			}
			return
		case *types.Builtin, nil:
			return
		default:
			// Variable of function type: indirect call.
			b.recordIndirect(p, from, fun)
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				m := sel.Obj().(*types.Func)
				if isInterfaceRecv(m) {
					b.ifaceCalls = append(b.ifaceCalls, ifaceCall{from: from, method: m})
					return
				}
				if target := b.prog.nodes[m]; target != nil {
					from.calls = append(from.calls, target)
				} else if isOSFileSync(m) {
					from.syncsFile = true
				}
				return
			case types.FieldVal:
				// Struct field of function type: indirect call.
				b.recordIndirect(p, from, fun)
				return
			}
			return
		}
		// Package-qualified call (pkg.Fn) or qualified var of func type.
		switch obj := p.Info.Uses[x.Sel].(type) {
		case *types.Func:
			if target := b.prog.nodes[obj]; target != nil {
				from.calls = append(from.calls, target)
			} else if isOSFileSync(obj) {
				from.syncsFile = true
			}
		case *types.Var:
			b.recordIndirect(p, from, fun)
		}
		return
	case *ast.FuncLit:
		// Immediately-invoked literal: the enclosing→literal edge added at
		// literal creation already covers it.
		return
	default:
		b.recordIndirect(p, from, fun)
	}
}

// recordIndirect queues an indirect call for signature-matched dynamic
// resolution.
func (b *graphBuilder) recordIndirect(p *Package, from *Node, fun ast.Expr) {
	tv, ok := p.Info.Types[fun]
	if !ok || tv.Type == nil {
		return
	}
	if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
		b.sigCalls = append(b.sigCalls, sigCall{from: from, sig: sig})
	}
}

// resolveDynamic expands the interface and function-value worklists into
// dyn edges, deterministically.
func (b *graphBuilder) resolveDynamic() {
	for _, lit := range b.pendingGoLits {
		if n := b.prog.litNode[lit]; n != nil {
			n.goLaunched = true
		}
	}

	// Interface dispatch: class-hierarchy analysis over the module's
	// named types.
	named := b.namedTypes()
	implCache := make(map[*types.Func][]*Node)
	for _, ic := range b.ifaceCalls {
		impls, ok := implCache[ic.method]
		if !ok {
			impls = b.implementers(ic.method, named)
			implCache[ic.method] = impls
		}
		ic.from.dyn = append(ic.from.dyn, impls...)
	}

	// Indirect calls: any function value (literal or address-taken
	// declaration) with an identical underlying signature may be the
	// callee.
	for _, sc := range b.sigCalls {
		for _, cand := range b.funcVals {
			if types.Identical(sc.sig, candidateSig(cand)) {
				sc.from.dyn = append(sc.from.dyn, cand)
			}
		}
	}
}

// namedTypes collects every named (non-interface) type declared in the
// loaded module packages, in deterministic order.
func (b *graphBuilder) namedTypes() []types.Type {
	var out []types.Type
	for _, p := range b.prog.Pkgs {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				continue
			}
			out = append(out, t)
		}
	}
	return out
}

// implementers resolves an interface method to the concrete methods of
// module types that satisfy the interface.
func (b *graphBuilder) implementers(m *types.Func, named []types.Type) []*Node {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	for _, t := range named {
		if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := b.prog.nodes[fn]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// candidateSig returns the underlying signature of a function value.
func candidateSig(n *Node) *types.Signature {
	if n.Obj != nil {
		return n.Obj.Type().Underlying().(*types.Signature)
	}
	if tv, ok := n.Pkg.Info.Types[n.Lit]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return types.NewSignatureType(nil, nil, nil, nil, nil, false)
}

// isInterfaceRecv reports whether a method's receiver is an interface.
func isInterfaceRecv(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// isOSFileSync matches the (*os.File).Sync method.
func isOSFileSync(fn *types.Func) bool {
	if fn.Name() != "Sync" || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}
