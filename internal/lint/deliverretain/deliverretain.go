// Package deliverretain enforces the radio delivery lifetime contract
// introduced in PR 4: a message passed to radio.Receiver.Deliver (and to
// the node.Protocol.Handle fan-out beneath it) is backed by the receiver's
// wire.DecodeScratch and is valid ONLY for the duration of the call.
// Anything the handler wants to keep — the message, a pointer into it, or
// any slice it carries — must be deep-copied first.
//
// This is exactly the bug class PR 4 fixed by hand: fds.Protocol kept
// p.update pointing at a delivered *wire.HealthUpdate (now deep-copied via
// storeUpdate into a persistent buffer), and intercluster stored a
// FailureReport whose slices aliased the scratch (now copied at
// reportState creation). The analyzer turns that one-time audit into a
// standing gate.
//
// Mechanics: every function or method named Deliver or Handle with a
// parameter of a wire message type starts with that parameter tainted.
// Taint propagates through local aliases, field selections, slicing,
// type switches, and same-package calls (so the per-kind onHeartbeat /
// onDigest / onFailureReport handlers are covered), and a store of tainted
// memory into anything that outlives the call — a field behind a pointer,
// a package variable, a map or slice element, a channel, a goroutine, or a
// closure that is not invoked before the handler returns — is reported.
//
// Element-copying operations launder taint: append(dst[:0], m.NewFailed...)
// and copy(dst, src) over scalar element types produce owned memory, and a
// by-value struct whose memory-carrying fields have all been reassigned to
// owned values (the intercluster.getState pattern) is clean. Scalar reads
// (m.From, m.Epoch) never taint.
package deliverretain

import (
	"go/ast"
	"go/types"

	"clusterfds/internal/lint"
)

// Analyzer is the message-lifetime invariant check.
var Analyzer = &lint.Analyzer{
	Name: "deliverretain",
	Doc: "flag handlers that retain a delivered wire message (or memory " +
		"reachable from it) past the Deliver/Handle call that received it",
	Run: run,
}

// handlerNames are the entry points of the delivery fan-out. Deliver is the
// radio.Receiver method; Handle is the node.Protocol method every protocol
// implements.
var handlerNames = map[string]bool{
	"Deliver": true,
	"Handle":  true,
}

func run(pass *lint.Pass) error {
	lint.CheckRetention(pass,
		func(fn *types.Func, decl *ast.FuncDecl) []*types.Var {
			if !handlerNames[fn.Name()] {
				return nil
			}
			sig := fn.Type().(*types.Signature)
			var out []*types.Var
			for i := 0; i < sig.Params().Len(); i++ {
				if p := sig.Params().At(i); lint.WireMessageType(p.Type()) {
					out = append(out, p)
				}
			}
			return out
		},
		nil,
		"delivered message")
	return nil
}
