// Package table implements the in-memory relational storage substrate used
// throughout the ASQP-RL reproduction: typed values, schemas, tables, row
// identifiers, databases (catalogs of tables), subsets of databases, and CSV
// import/export.
//
// # A relation is its columns
//
// A Table is a Name, a Schema and a ColumnSet, and nothing else: per column
// one typed vector ([]int64, []float64, []bool), strings as []int32 codes into
// the table's own first-appearance Dict (so a table's dictionaries are
// deterministic), a validity bitmap (nil when the column has no NULLs) and
// zone maps — min/max/has-null per ZoneChunkRows = 1024 rows, the engine's
// morsel size, so one zone prunes exactly one morsel. This is the one
// representation the query engine, the preprocessing pipeline and every
// baseline read. Columns returns the storage itself: there is no view to
// build, no first-use cost and nothing to invalidate. Row and Cell box on
// demand for display, the test oracle and cold per-row code; Select (hence
// Subset.Materialize) gathers column by column through the same append, so a
// copy has its own zones and its own dictionaries in first-appearance order
// over the selected rows.
//
// The typed appenders (appendNull, appendInt, appendFloat, appendBool,
// appendString) are the one way in: each adds a column's next cell to its
// vector, sets the null bit, folds the cell into its chunk's zone and interns a
// string, and nothing else does any of the four. AppendRow checks a Row and
// dispatches each cell to them, keeping nothing of the Row: a wrong arity, a
// cell of another kind or a null-kind column panics, naming table, column, row
// and both kinds, and leaves the table as it was — a programming error, so a
// relation that violates "a column holds NULLs and values of its declared kind
// and nothing else" cannot exist. ReadCSV, the one outside door, holds a whole
// file's bytes and scans them in place (scanCSV): fields split with
// bytes.IndexByte and parsed by their column's declared kind straight into its
// appender (no line string, no Row, no boxed Value, one dictionary lookup per
// string, copied only when new), every vector sized once from the newline
// count. The scanner reads a file with no quote and no \r anywhere and declines
// the rest, as it does a record of another width, an unparsable field or a
// :null header column; decodeCSV, the encoding/csv loop over the same bytes,
// then loads what encoding/csv reads (quoted fields, \r\n line ends) or returns
// the error naming line and column. An error returns no table. ReadCSVDir reads
// a directory's regular *.csv files concurrently, at most GOMAXPROCS at once
// and the largest first, one goroutine per file, never a file split (a table's
// dictionaries stay in first-appearance order); a file's bytes stay live until
// its table is built. It adds the tables in name order and reports the first
// failing file in name order, so the database and the error are what a serial
// loop gives. No operator therefore re-implements cross-kind coercion or has a
// second path for a column that is not typed vectors. column_test.go keeps the
// build-everything-from-rows routine as the reference (refColumns) and holds
// AppendRow, Select and ReadCSV(WriteCSV(t)) to it over random tables with NULL
// runs across chunk boundaries; csv_test.go keeps the row-at-a-time loader
// (refReadCSV) and FuzzReadCSV holds ReadCSV, and decodeCSV alone, to it on any
// bytes, and what loads to a WriteCSV fixed point; TestReadCSVAllocatesPerFile
// holds a plain file to the scanner (its allocations do not grow with the
// lines); TestReadCSVDirConcurrent holds the concurrent load to name order,
// beside a file only decodeCSV words. TestGeneratedCSVPinned pins a generated
// dataset's CSV bytes, TestResidentBytesPerCell holds a generated database to
// 16 heap bytes a cell, TestReadCSVKeepsNoLine holds ReadCSV's dictionaries off
// the lines they were read from, and BenchmarkLoadCSV and BenchmarkReadCSVDir
// report bytes per loaded cell.
//
// An answer is not a relation: a RowSet is a Schema and Rows []Row, because a
// result cell's kind is whatever its expression evaluated to.
//
// # Join indexes
//
// The database is immutable for the life of a server and shared across
// hot-swap generations, so the grouping of a column's rows by key is a
// property of the table, not of a query. ColumnSet.JoinIndex(col) returns an
// immutable CSR index over one column: rows holds every non-NULL row id
// grouped by JoinKey, ascending within a group, and offs[g]..offs[g+1]
// delimits group g. A JoinKey is a tag and 64 bits: ints and integral floats
// unify (Value.Key semantics, FloatJoinKey), other floats key by bit pattern
// with NaN canonicalized, strings by dictionary code, bools and NULLs by tag.
// From key to group there are two layouts, chosen from the data when the
// index is built — there is no option:
//
//   - dense: keys of one tag whose bits span a compact range address offs
//     directly — dictionary codes, bools, and int columns whose max − min is
//     under 4× the row count (ids, foreign keys, years; DenseSpread, which a
//     caller can ask of the zone maps' bounds before anything is built). Over
//     an int column the rows of a value range [lo, hi] are then one slice of
//     rows, counted in O(1) (JoinIndex.IntRange): the engine's range access
//     path;
//   - hash: everything else goes through an open-addressed table of group
//     numbers (linear probing, load ≤ ¾). Slots store no key; a hit is
//     verified against the key of the group's first row.
//
// Both are built by two counting-sort passes, which is what makes each group
// ascending — the order a per-query hash join bucketed candidates in, so a
// probe over the index emits what that join emitted. Memory is bounded by
// about 20 bytes per row per indexed column, and only columns some join or
// range scan has used are indexed. Indexes are built lazily behind one sync.Once per column:
// concurrent first users of a column share one build
// (TestJoinIndexConcurrentFirstUse), first uses of different columns do not
// queue behind each other, and an AppendRow after a build drops them — which,
// relations being immutable once shared, happens only in tests. The same cache
// holds the identity selection vector (ColumnSet.Identity), one shared
// read-only [0, n). NewJoinIndex is the same builder over a row subset with a
// caller-supplied key, for the engine's per-step candidate hash.
package table
