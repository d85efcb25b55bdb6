// Package lint is a self-contained static-analysis framework plus the
// domain analyzers that machine-check this codebase's cross-cutting
// invariants. It deliberately mirrors the golang.org/x/tools/go/analysis
// API surface — Analyzer, Pass, Diagnostic — but is built on the standard
// library alone, because this module carries no third-party dependencies:
// cmd/ucclint speaks the `go vet -vettool` unitchecker protocol by hand
// (unitchecker.go), so the go command lists and builds the packages, and
// each one is typechecked against its dependencies' gc export data
// (check.go).
//
// # The analyzer catalogue
//
// Each analyzer lives in its own subpackage and pins one invariant that
// neither the type system nor a test can express:
//
//   - poolsafe: values from pooled constructors (DecodeMessagePooled,
//     ReadEnvelopePooled, the model.PooledX family) are valid only until
//     RecycleMessage — no stores that outlive the frame, channel sends,
//     goroutine captures, appends, or use-after-recycle.
//   - lockorder: per-item code paths hold at most one shard lock at a
//     time; the all-shard crash/recovery critical section is allow-listed
//     in place with its index-order argument.
//
// Invariants a declaration can carry are not analyzers: a message type
// without a wire tag or an encoder does not compile, and internal/model's
// table tests pin the decode table and the sheddable set.
//
// # Running the suite
//
//	make lint                                   # build + run over ./...
//	go vet -vettool=$(pwd)/bin/ucclint ./...    # the same, once bin/ucclint is built
//
// # Suppressions
//
// A finding that is correct-but-intended is silenced in place, never
// globally, with a comment on the flagged line or the line above:
//
//	//ucclint:allow lockorder -- index-order acquisition under the sequencer drain
//
// The "-- reason" tail is mandatory by convention: the reviewer reads it,
// the analyzer only parses the name list. Test files are never analyzed —
// tests legitimately stage invariant violations.
//
// # Adding an analyzer
//
// Create internal/lint/<name>/<name>.go declaring a package-level
// `var Analyzer = &lint.Analyzer{...}` whose Run inspects one Pass.
// Match well-known packages by import-path suffix (lint.PathHasSuffix)
// rather than the full module path, so fixture modules exercise the same
// code. Add fixture packages under <name>/testdata/src/<importpath>/ with
// `// want "regexp"` expectations, a test calling linttest.Run, and a
// violation in cmd/ucclint/testdata/badmod so the smoke test proves the
// multichecker surfaces it. Finally, register the analyzer in
// cmd/ucclint/main.go and document it here and in docs/ARCHITECTURE.md.
package lint
