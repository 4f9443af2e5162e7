// Package engine implements the query planner and executor for the SQL
// subset parsed by internal/sqlparse: filtered scans, left-deep equi-joins
// with cartesian fallback, projection, grouped aggregation, DISTINCT, ORDER
// BY and LIMIT. The executor tracks lineage — for every SPJ result row, the
// base table rows that produced it — which the ASQP-RL preprocessing pipeline
// uses to build the RL action space.
//
// # One executor, and its oracle
//
// Execution is columnar: every phase reads the typed vectors of
// internal/table through selection vectors ([]int32 row ids) and joined
// batches (per bound relation one row-id vector, never materialized rows).
// Every operator runs on the goroutine that called the engine, at every input
// size, so guards are plain counters; Options.Parallelism is a field the
// engine ignores. The row-at-a-time engine this replaced is the test oracle
// and nothing else: rowExecute in rowengine_test.go (bind → classify → row
// tail; same guard, fault points, budgets and error strings), reached by no
// option, flag or product code. FuzzRowVsColumnar holds the engine to it on
// seeded random databases (NULLs, NaN, integral floats, dictionary strings,
// sparse keys, tables of several morsels) × random statements, each executed
// as a table, a frame and a count under normal execution, canceled contexts,
// output and intermediate budgets and injected faults: same result
// fingerprint (schema, row keys, lineage), error string, guard kind and
// partial result. What product code keeps of the row engine is what the
// columnar path itself calls: scanRelationRows (filters that do not compile),
// aggregateRows (expression keys and arguments), finish, evalExpr.
//
// Parity is exact, not approximate: same result order, same guard cadence
// (tickChunks ticks in guardInterval-sized chunks, so context polls land where
// the row loop put them), same typed guard errors, same fault points
// (engine/scan per relation, engine/join per step, engine/project), same span
// tree. Value.Compare returns 0 when either side is NaN, so NaN passes <=, >=
// and BETWEEN but not <, > or =; the kernels use complement forms and a chunk
// holding a NaN gets the zone (−Inf, +Inf) so no prune rule skips it
// (TestColumnarNaNComparisonParity).
//
// # Scan: kernels and access paths
//
// Filter predicates compile to kernels (kernels.go): closures that refine a
// selection vector, plus an optional per-morsel zone prune (a morsel is
// table.ZoneChunkRows = 1024 rows, so one zone prunes exactly one morsel;
// TestMorselsSkippedCounter). Compilation is conservative: an expression that
// could raise at run time rejects, and the relation falls back to the per-row
// scan, preserving error order. Compiled kernels cannot fail. Every predicate
// form is built by one constructor per column kind, from a test of one value:
// numericKernel runs a float64 test over an int or float column
// (TestColumnarNaNComparisonParity); dictKernel asks its test once per distinct
// string and scans codes through the mask, and boolKernel asks it of false and
// true (TestMaskKernelsMatchRowEngine). A bare numeric column is the comparison
// with 0. Comparisons and BETWEEN on an int column against integral bounds
// below 2^53 take rangeKernel instead: one inline unsigned range test on the
// int64 cell, agreeing with the float64 comparison on every int64
// (TestIntKernelsMatchFloatComparison).
//
// scanRelationsCol has three access paths per relation, and one chooser picks
// among them per execution from exact counts it takes itself — no planner, no
// statistics, no option:
//
//   - full: every row, morsel by morsel, zone maps skipping morsels;
//   - index: a kernel that passes exactly the non-NULL int cells in [lo, hi]
//     (=, <, <=, >, >=, BETWEEN against exact-int bounds; never <>, NOT
//     BETWEEN, a float column or a non-integral bound) records that range, and
//     over a column the zone maps prove dense (table.DenseSpread, asked before
//     anything is built) the column's cached table.JoinIndex holds the range's
//     rows as one slice (JoinIndex.IntRange), counted in O(1);
//   - sideways: a relation R with an equi-join conjunct to an already-scanned
//     S takes S's surviving keys (sidewaysRows) and counts through R's cached
//     join index the rows they reach (reachable).
//
// The chooser reads the relation's narrowest index range, or the rows a
// partner's keys reach, whichever is under NumRows/sidewaysFrac and smaller
// (the keys are counted only up to the index range's count), and otherwise
// every row; then all of the relation's kernels run over the chosen ascending
// rows, so the selection is the kernels' own by construction. A range of
// several keys comes back grouped by key and is re-sorted through a bitmap
// (ascendingRows). A relation of one morsel is always read whole. An index
// range leaves unread only rows the relation's own kernels reject, so it is
// open to every relation whose filters compile. Sideways is not: inner
// equi-joins are conjunctive, so a row it leaves unread joins no surviving
// partner and appears in no output tuple, but it is off for a single relation,
// for any filter that does not compile (an unread row would hide the error the
// oracle reports), for a residual predicate applied before the last join step,
// and for a cross product. When it is on, scanPlan scans fewest candidate rows
// first — an index range's exact count, else the table's size — so a selective
// side is scanned before the relations that can take its keys; the join steps
// still run in FROM order over ascending candidates, so the answer, lineage
// included, is byte-identical. Its one visible effect: intermediates only
// shrink, so a statement whose first intermediate exceeded MaxIntermediateRows
// may now succeed (TestSidewaysFitsIntermediateBudget). TestSidewaysDecision
// and TestIndexRangeDecision pin the decisions, the rows read, the span
// attributes (via/<rel> — "full", "index <rel>.<col>" or the partner's key
// column —, keys/<rel>, rows_read/<rel>) and the counters;
// TestSidewaysDeclineCostsOneLookupPerKey and TestExplainScanOrder the rest.
//
// # Join: the probe is a kernel over a cached index
//
// A join step builds nothing per query: it probes the build column's cached
// table.JoinIndex (see that package). newJoinMatcher probes the pair whose
// index has the most distinct keys and marks a filtered build side's
// candidates in a bitmap. joinMatcher.matches (probe.go) works on
// guardInterval batch rows at a time in three passes over pooled scratch:
// keys (one typed loop per key pair into a tag and a bits vector; NULL keys
// match nothing, a probe string absent from the build dictionary is a miss,
// translated lazily — TestProbeKeyerTranslatesLazily), runs (JoinIndex.Runs
// finds every key's run; a key the index addresses and no row has gets the
// empty run — TestProbeUniqueIndexAddressesAbsentKeys), and emission by one of
// three loops chosen per step, never per row: unique keys (branch-free),
// runs, or count-only (nothing written). Output columns are gathered once
// per 32 768 waiting pairs, so a step allocates each column at its size
// (TestProbeAllocsFollowMatches).
//
// Cost bound: a cached index covers all rows of a column, so a run can hold
// rows the step only passes over (filtered out, or differing on another key
// pair). The matcher counts those and plays ski-rental: past subCost × the
// candidate count it hashes the candidates on all key pairs once
// (table.NewJoinIndex) and probes that instead, so total work stays within a
// constant of a per-query hash join's (TestJoinWorkBoundedByCandidatesAndMatches).
// Rows passed over still poll the guard every guardInterval
// (TestJoinPollsGuardWhileScanningPastRows). The intermediate budget is exact
// per chunk: the kernel is handed the room left, the caller ticks the guard
// for the rows emitted and only then raises ErrRowBudget, so "error iff total
// emitted > MaxIntermediateRows" holds (TestProbeChunkBudgetExact,
// TestProbeDeadlineMidway).
//
// # Aggregate: keys to codes to group ids to typed accumulators
//
// planAggregate fixes the plan from the statement and the tables' columns;
// aggregateCol (groupagg.go) reads the batch guardInterval rows at a time,
// each chunk in three passes. Keys to codes: each GROUP BY key folds one
// small integer per row into a running mixed-radix code, its encoding chosen
// from the data (dictionary code, bool, int offset from the zone-map minimum,
// or a per-query numbering for wide ints and floats; NULL is a group of its
// own). Codes to group ids: a direct-address table when the cardinalities
// multiply to at most directSlots, one hash table otherwise; ids are
// first-appearance order, the oracle's output order (TestGroupNumbering).
// Arguments to accumulators: one loop per aggregate call over its argument's
// typed vector into only the arrays its function reads. SUM and AVG add
// float64s in row order, because float addition does not associate and the
// oracle adds in row order; that is also why aggregation is serial.
// A GROUP BY key or aggregate argument that is an expression takes
// aggregateRows (the engine/aggregate/fallback counter,
// TestAggregateFallbackCounter) so the error surfaces at the oracle's row.
// TestAggregateDeadlineMidway and TestAggregateAllocsFollowGroups pin the
// guard cadence and that allocations follow groups, not rows.
//
// # Answer: a Frame until it is bytes
//
// The columnar SPJ tail ends in a Frame: the output schema, the row count N
// and per output column a FrameCol saying where cell i lives — a relation's
// ColumnData behind a row-id vector, the answer's own rows, or a literal.
// Nothing is copied to build one; it borrows the relations' vectors and is
// valid while they are (base tables are immutable for a serving generation).
// A projection of column references, literals and * cannot fail, so
// projectCol charges the guard for the whole pre-LIMIT batch at once
// (tickChunks + one out(n): the oracle's accounting, so LIMIT never lifts an
// output budget — TestLimitDoesNotLiftOutputBudget) and then builds only what
// the caller needs: CountContext builds nothing (TestColumnarCountFastPath),
// ExecuteFrameContext shortens Frame.N, LineageContext writes the lineage of
// the first N tuples into one allocation (TestLineageOfMixedCaseTable),
// ExecuteWithContext materializes the
// pre-LIMIT rows through projection.materialize, the one routine that builds
// output rows. DISTINCT, ORDER BY, aggregates and expression projections
// materialize first and are then a frame over their own rows.
package engine
