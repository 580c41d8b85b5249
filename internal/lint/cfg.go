package lint

import (
	"go/ast"
	"go/types"
)

// An intraprocedural control-flow graph over the syntax tree, built for
// the path-sensitive timeflow rule. Each basic block carries the AST nodes
// that execute in it, in order; clients interpret the nodes with their own
// transfer functions (see dataflow.go).
//
// Node conventions, chosen so one builder serves every client:
//
//   - plain statements (assignments, expression statements, sends, defers,
//     go statements, declarations, inc/dec) appear as themselves;
//   - an if/for condition, a switch tag, a range operand and a case-clause
//     expression appear as bare ast.Expr nodes at their evaluation point;
//   - a *ast.RangeStmt reappears at the head of its body block so clients
//     can model the per-iteration key/value binding;
//   - return statements and panic(...) expression statements appear as
//     nodes and terminate their block: it has no successors;
//   - branch statements (break/continue/goto/fallthrough) contribute edges
//     only.
//
// Edges out of a condition carry (cond, taken) so dataflow clients can
// refine state on branch direction (the timeflow rule's `x > now` guards).

type edge struct {
	to    *block
	cond  ast.Expr // branch condition this edge evaluates, or nil
	taken bool     // direction of cond along this edge
}

type block struct {
	index int
	nodes []ast.Node
	succs []edge
}

type cfg struct {
	entry  *block
	blocks []*block
}

// reachable returns the blocks reachable from entry, in index order (which
// is construction order, i.e. deterministic source order).
func (c *cfg) reachable() []*block {
	seen := make([]bool, len(c.blocks))
	var visit func(b *block)
	visit = func(b *block) {
		if seen[b.index] {
			return
		}
		seen[b.index] = true
		for _, e := range b.succs {
			visit(e.to)
		}
	}
	visit(c.entry)
	var out []*block
	for _, b := range c.blocks {
		if seen[b.index] {
			out = append(out, b)
		}
	}
	return out
}

// cfgBuilder builds a cfg one statement at a time. cur is the block under
// construction; it becomes nil after a terminator (the next statement, if
// any, starts a fresh unreachable block, except label targets which may be
// reached by goto).
type cfgBuilder struct {
	c      *cfg
	info   *types.Info
	cur    *block
	loops  []loopCtx
	labels map[string]*block // goto/label targets
}

// loopCtx is one enclosing breakable construct. continueTo is nil for
// switch/select (break-only targets).
type loopCtx struct {
	label      string
	breakTo    *block
	continueTo *block
}

func buildCFG(fd *ast.FuncDecl, info *types.Info) *cfg {
	c := &cfg{}
	b := &cfgBuilder{c: c, info: info, labels: map[string]*block{}}
	c.entry = b.newBlock()
	b.cur = c.entry
	b.stmts(fd.Body.List)
	return c
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{index: len(b.c.blocks)}
	b.c.blocks = append(b.c.blocks, blk)
	return blk
}

// use returns the current block, starting a fresh (unreachable) one after a
// terminator so subsequent dead statements still have somewhere to live.
func (b *cfgBuilder) use() *block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) emit(n ast.Node) {
	if n != nil {
		blk := b.use()
		blk.nodes = append(blk.nodes, n)
	}
}

// jump links cur to target unconditionally and ends cur.
func (b *cfgBuilder) jump(target *block) {
	if b.cur != nil {
		b.cur.succs = append(b.cur.succs, edge{to: target})
	}
	b.cur = nil
}

// branch links cur to target along one direction of cond without ending cur.
func (b *cfgBuilder) branch(target *block, cond ast.Expr, taken bool) {
	if b.cur != nil {
		b.cur.succs = append(b.cur.succs, edge{to: target, cond: cond, taken: taken})
	}
}

func (b *cfgBuilder) labelBlock(name string) *block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// findLoop resolves a break/continue target; label "" means innermost.
// wantContinue restricts to constructs that accept continue.
func (b *cfgBuilder) findLoop(label string, wantContinue bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		l := &b.loops[i]
		if wantContinue && l.continueTo == nil {
			continue
		}
		if label == "" || l.label == label {
			return l
		}
	}
	return nil
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) stmt(stmt ast.Stmt, label string) {
	switch s := stmt.(type) {
	case nil:
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.IfStmt:
		b.stmt(s.Init, "")
		b.emit(s.Cond)
		head := b.cur // non-nil: emit materialised it
		thenB := b.newBlock()
		join := b.newBlock()
		b.branch(thenB, s.Cond, true)
		b.cur = thenB
		b.stmts(s.Body.List)
		b.jump(join)
		if s.Else != nil {
			elseB := b.newBlock()
			head.succs = append(head.succs, edge{to: elseB, cond: s.Cond, taken: false})
			b.cur = elseB
			b.stmt(s.Else, "")
			b.jump(join)
		} else {
			head.succs = append(head.succs, edge{to: join, cond: s.Cond, taken: false})
		}
		b.cur = join
	case *ast.ForStmt:
		b.stmt(s.Init, "")
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		exit := b.newBlock()
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.emit(s.Cond)
			b.branch(body, s.Cond, true)
			b.branch(exit, s.Cond, false)
			b.cur = nil
		} else {
			b.jump(body)
		}
		b.loops = append(b.loops, loopCtx{label: label, breakTo: exit, continueTo: post})
		b.cur = body
		b.stmts(s.Body.List)
		b.jump(post)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = post
		b.stmt(s.Post, "")
		b.jump(head)
		b.cur = exit
	case *ast.RangeStmt:
		b.emit(s.X)
		head := b.newBlock()
		body := b.newBlock()
		exit := b.newBlock()
		b.jump(head)
		head.succs = append(head.succs,
			edge{to: body}, edge{to: exit})
		b.loops = append(b.loops, loopCtx{label: label, breakTo: exit, continueTo: head})
		b.cur = body
		b.emit(s) // per-iteration key/value binding
		b.stmts(s.Body.List)
		b.jump(head)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = exit
	case *ast.SwitchStmt:
		b.switchStmt(label, s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(label, s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		join := b.newBlock()
		head := b.use()
		b.loops = append(b.loops, loopCtx{label: label, breakTo: join})
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			cb := b.newBlock()
			head.succs = append(head.succs, edge{to: cb})
			b.cur = cb
			b.stmt(cc.Comm, "")
			b.stmts(cc.Body)
			b.jump(join)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(s.Body.List) == 0 {
			head.succs = append(head.succs, edge{to: join})
		}
		b.cur = join
	case *ast.LabeledStmt:
		target := b.labelBlock(s.Label.Name)
		b.jump(target)
		b.cur = target
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.emit(s)
		b.cur = nil
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && builtinName(b.info, call) == "panic" {
			b.emit(s)
			b.cur = nil
			return
		}
		b.emit(s)
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt,
		// EmptyStmt: straight-line nodes.
		if _, ok := stmt.(*ast.EmptyStmt); !ok {
			b.emit(stmt)
		}
	}
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if l := b.findLoop(label, false); l != nil {
			b.jump(l.breakTo)
		} else {
			b.cur = nil
		}
	case "continue":
		if l := b.findLoop(label, true); l != nil {
			b.jump(l.continueTo)
		} else {
			b.cur = nil
		}
	case "goto":
		b.jump(b.labelBlock(label))
	case "fallthrough":
		// handled structurally in switchStmt; a stray one just ends the block
		b.cur = nil
	}
}

// switchStmt lowers expression and type switches. Each clause gets its own
// block whose head holds the case expressions (or the type-switch assign);
// fallthrough chains a clause's end into the next clause's body.
func (b *cfgBuilder) switchStmt(label string, init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	b.stmt(init, "")
	if tag != nil {
		b.emit(tag)
	}
	if assign != nil {
		b.emit(assign)
	}
	head := b.use()
	join := b.newBlock()

	clauses := make([]*block, len(body.List))
	for i := range body.List {
		clauses[i] = b.newBlock()
	}
	hasDefault := false
	for i, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		head.succs = append(head.succs, edge{to: clauses[i]})
		b.cur = clauses[i]
		for _, e := range cc.List {
			b.emit(e)
		}
		b.loops = append(b.loops, loopCtx{label: label, breakTo: join})
		fellThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				if i+1 < len(clauses) {
					b.jump(clauses[i+1])
				} else {
					b.cur = nil
				}
				fellThrough = true
				break
			}
			b.stmt(st, "")
		}
		b.loops = b.loops[:len(b.loops)-1]
		if !fellThrough {
			b.jump(join)
		}
	}
	if !hasDefault {
		// Some value matches no case: the switch falls straight through.
		head.succs = append(head.succs, edge{to: join})
	}
	b.cur = join
}
