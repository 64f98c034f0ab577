// Package fsyncrename enforces the commit discipline of the storage engines
// (docs/FORMATS.md): an os.Rename that publishes durable state — installing
// a flushed or merged SSTable, committing a manifest — must be preceded, in
// the same function, by an fsync of the file being renamed (directly via
// (*os.File).Sync or through a package-local helper that transitively
// syncs, like sstWriter.finish), and must be followed by a directory fsync
// (syncDir or a helper reaching it) so the new directory entry itself is
// durable. Rename-before-sync is the torn-header bug class: after a crash
// the name points at data the disk never promised to keep.
//
// The analysis is intraprocedural over statement order with a
// package-local call-graph closure (rvet/callgraph) for the sync sets — it
// proves presence on the straight-line reading, not all-paths correctness.
// Functions that rename files synced by an earlier phase (commit helpers
// fed a sealed temp file, like lsm's merge commit) carry a reasoned escape.
package fsyncrename

import (
	"go/ast"
	"go/token"
	"go/types"

	"rstore/internal/analysis/rvet"
	"rstore/internal/analysis/rvet/callgraph"
)

// Analyzer is the fsyncrename rule.
var Analyzer = &rvet.Analyzer{
	Name: "fsyncrename",
	Doc: "os.Rename committing durable engine state needs a file Sync before and a directory fsync after\n\n" +
		"Scope: rstore/internal/engine/..., non-test files. A call to a\n" +
		"package-local function that (transitively) calls (*os.File).Sync counts\n" +
		"as the file sync; a call reaching a function named syncDir counts as the\n" +
		"directory fsync.",
	Run: run,
}

func run(pass *rvet.Pass) error {
	if !pass.InScope("rstore/internal/engine") {
		return nil
	}
	info := pass.TypesInfo()

	// Pass 1: package-local call graph and the directly-syncing functions.
	g := callgraph.Build(pass.Pkg)
	fileSyncers := g.Closure(func(call *ast.CallExpr) bool {
		return rvet.IsMethodCall(info, call, "os", "File", "Sync")
	})
	dirSyncers := g.Closure(func(call *ast.CallExpr) bool {
		fn := rvet.Callee(info, call)
		return fn != nil && fn.Name() == "syncDir" && fn.Pkg() == pass.TypesPkg()
	})

	// Pass 2: per-function statement-order check around each os.Rename.
	for fn, fd := range g.Decls {
		var renames []*ast.CallExpr
		var fileSyncPos, dirSyncPos []token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case rvet.IsPkgCall(info, call, "os", "Rename"):
				renames = append(renames, call)
			case rvet.IsMethodCall(info, call, "os", "File", "Sync"):
				fileSyncPos = append(fileSyncPos, call.Pos())
			}
			if callee := rvet.Callee(info, call); callee != nil && callee != fn {
				if fileSyncers[callee] {
					fileSyncPos = append(fileSyncPos, call.Pos())
				}
				if dirSyncers[callee] || isSyncDir(pass, callee) {
					dirSyncPos = append(dirSyncPos, call.Pos())
				}
			}
			return true
		})
		for _, ren := range renames {
			if !anyBefore(fileSyncPos, ren.Pos()) {
				pass.Reportf(ren.Pos(), "os.Rename commits durable state with no preceding file Sync in this function: fsync the renamed file first (or escape with the phase that already sealed it)")
			}
			if !anyAfter(dirSyncPos, ren.Pos()) {
				pass.Reportf(ren.Pos(), "os.Rename is not followed by a directory fsync in this function: call syncDir so the new entry survives a crash")
			}
		}
	}
	return nil
}

// isSyncDir matches the designated directory-fsync helper itself.
func isSyncDir(pass *rvet.Pass, fn *types.Func) bool {
	return fn.Name() == "syncDir" && fn.Pkg() == pass.TypesPkg()
}

func anyBefore(positions []token.Pos, p token.Pos) bool {
	for _, q := range positions {
		if q < p {
			return true
		}
	}
	return false
}

func anyAfter(positions []token.Pos, p token.Pos) bool {
	for _, q := range positions {
		if q > p {
			return true
		}
	}
	return false
}
