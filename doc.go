// Package asqprl is a from-scratch Go reproduction of "Learning
// Approximation Sets for Exploratory Queries" (ASQP-RL, SIGMOD 2024):
// reinforcement-learning-selected data subsets that answer complex
// non-aggregate exploratory queries fast and accurately.
//
// The implementation lives under internal/, the runnable entry points under
// cmd/ and examples/, and the harness that regenerates every table and figure
// of the paper's evaluation in internal/experiments (run by cmd/asqp-bench).
//
// Each fact about the repository has one owner: DESIGN.md says what the code is
// and why, each invariant beside the test that holds it; README.md how to
// build, run and operate it; CHANGES.md what each change did and every
// measured before/after number; a package's contract is its doc comment. The
// test in this package (docs_test.go) resolves every code span of the first
// two, and of examples/serving/README.md, against the source tree.
package asqprl
