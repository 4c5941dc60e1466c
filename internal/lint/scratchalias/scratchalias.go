// Package scratchalias guards the recycled-memory contract of the decode
// layer: wire.DecodeInto parses into a reusable DecodeScratch, and the
// returned message and every slice it carries are overwritten by the next
// DecodeInto on the same scratch. A decode result may be read, handed to
// Deliver, or copied — but storing it (or memory reachable from it) into a
// field, package variable, map/slice element, channel, or escaping closure
// is a latent aliasing bug that only bites when the arena is reused, far
// from the store.
//
// The retention analysis is shared with deliverretain (see the lint
// package's TaintEngine): taint starts at DecodeInto results instead of
// handler parameters, and follows the same aliasing, copying, and
// cleansing rules.
package scratchalias

import (
	"go/ast"

	"clusterfds/internal/lint"
)

// Analyzer is the decode-scratch lifetime check.
var Analyzer = &lint.Analyzer{
	Name: "scratchalias",
	Doc:  "flag retention of wire.DecodeScratch-backed decode results past the decode",
	Run:  run,
}

func run(pass *lint.Pass) error {
	lint.CheckRetention(pass,
		nil,
		func(call *ast.CallExpr) bool {
			fn := lint.PkgFunc(pass.TypesInfo, call)
			return fn != nil && fn.Name() == "DecodeInto" &&
				fn.Pkg() != nil && lint.WirePackage(fn.Pkg().Path())
		},
		"scratch-backed decode result")
	return nil
}
