// Package asqprl is a from-scratch Go reproduction of "Learning
// Approximation Sets for Exploratory Queries" (ASQP-RL, SIGMOD 2024):
// reinforcement-learning-selected data subsets that answer complex
// non-aggregate exploratory queries fast and accurately.
//
// The implementation lives under internal/ (see DESIGN.md for the module
// inventory), the runnable entry points under cmd/ and examples/, and the
// harness that regenerates every table and figure of the paper's evaluation
// in internal/experiments (run by cmd/asqp-bench).
package asqprl
