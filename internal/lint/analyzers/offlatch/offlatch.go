// Package offlatch enforces PR 8's off-latch I/O contract: no page I/O,
// channel operation, or sleep may happen while a lock annotated with a
// noblock class is held.
//
// Lock annotations carry the policy. `noblock=io,chan,sleep` on a leaf
// latch (the buffer-pool latch) bans the classes transitively — any
// call whose summary reaches such an operation is flagged, because a leaf
// latch critical section is supposed to be a handful of map/clock updates.
// `noblockdirect=...` on tower locks (the frontier shard mutex) bans only
// operations written directly in the holding function: tower critical
// sections legitimately reach the buffer pool (whose misses park on a
// loading channel), so a transitive rule would drown the signal — the
// split is documented in DESIGN.md "Statically checked invariants".
//
// Page I/O is recognized by `//focuslint:blocking io` annotations on the
// DiskManager methods; channel sends/receives/selects/ranges and
// time.Sleep are recognized syntactically (a select with a default case
// does not block and is not flagged).
package offlatch

import (
	"focus/internal/lint/analysis"
	"focus/internal/lint/lockmodel"
)

// Analyzer is the offlatch analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "offlatch",
	Doc:  "forbid page I/O, channel ops, and sleeps while noblock-annotated locks are held",
	Run:  run,
}

func run(prog *analysis.Program, target *analysis.Package) []analysis.Diagnostic {
	m := lockmodel.For(prog)
	var out []analysis.Diagnostic
	for _, f := range m.Findings(target, lockmodel.KindBlock) {
		out = append(out, analysis.Diagnostic{Pos: f.Pos, Message: f.Msg})
	}
	return out
}
