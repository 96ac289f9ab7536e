// Package locktower enforces the repo's documented lock tower statically.
//
// Mutex fields annotated `//focuslint:lock rank=... order=N` form the
// tower (crawler epoch < link stripe < frontier shard < crawler global);
// `leaf` marks terminal locks (registry shards, the pool latch, disk
// mutexes) that may be taken under any tower lock but must
// acquire nothing themselves. The analyzer abstract-interprets every
// function body, propagates acquire summaries through the static call
// graph, and reports:
//
//   - out-of-order acquisitions (directly or via a callee's summary)
//   - two instances of one rank held together without a `sequence=rank*`
//     barrier annotation (the ascending-id whole-frontier loop is the one
//     sanctioned shape)
//   - any acquisition while a leaf lock is held
//   - call sites that do not hold a callee's `requires=` locks
//   - functions returning with a lock held but no `exit=held` annotation
//   - malformed annotations
package locktower

import (
	"focus/internal/lint/analysis"
	"focus/internal/lint/lockmodel"
)

// Analyzer is the locktower analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "locktower",
	Doc:  "check annotated mutexes against the documented lock tower order",
	Run:  run,
}

func run(prog *analysis.Program, target *analysis.Package) []analysis.Diagnostic {
	m := lockmodel.For(prog)
	var out []analysis.Diagnostic
	for _, f := range m.Findings(target,
		lockmodel.KindAnnot, lockmodel.KindOrder, lockmodel.KindMulti,
		lockmodel.KindLeafAcq, lockmodel.KindRequires, lockmodel.KindExit) {
		out = append(out, analysis.Diagnostic{Pos: f.Pos, Message: f.Msg})
	}
	return out
}
