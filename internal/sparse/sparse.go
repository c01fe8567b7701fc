// Package sparse implements the sparse matrix machinery at the heart of
// the paper's "high performance" inference scheme (Section 3.4.1): the
// netlist adjacency is stored in coordinate (COO) format — a list of
// (value, row, col) tuples that supports the O(1) incremental appends the
// iterative insertion flow needs — and converted to compressed sparse row
// (CSR) for fast sparse×dense products (SpMM).
//
// Both formats multiply against dense matrices; CSR additionally offers a
// transpose product (used by backpropagation) and a parallel SpMM on the
// shared internal/par helpers, standing in for the paper's GPU kernels.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Hot-path metrics (no-ops until obs.Enable; see docs/OBSERVABILITY.md).
var (
	spmmRows          = obs.GetCounter("spmm.rows")
	spmmCalls         = obs.GetCounter("spmm.calls")
	spmmParallelCalls = obs.GetCounter("spmm.parallel_calls")
	spmmF32Calls      = obs.GetCounter("spmm.f32_calls")
)

// COO is a sparse matrix in coordinate format. Duplicate (row,col)
// entries are allowed and are summed by multiplication and by CSR
// conversion, matching the usual COO semantics.
type COO struct {
	// NumRows and NumCols are the logical matrix dimensions.
	NumRows, NumCols int
	// Rows and Cols hold the coordinate of each stored tuple.
	Rows, Cols []int32
	// Vals holds each tuple's value, parallel to Rows/Cols.
	Vals []float64
}

// NewCOO returns an empty r×c COO matrix.
func NewCOO(r, c int) *COO {
	return &COO{NumRows: r, NumCols: c}
}

// Append adds one (value, row, col) tuple. This is the incremental
// construction primitive the paper's flow relies on when observation
// points modify the graph.
func (m *COO) Append(row, col int32, v float64) {
	if row < 0 || int(row) >= m.NumRows || col < 0 || int(col) >= m.NumCols {
		panic(fmt.Sprintf("sparse: Append(%d,%d) outside the current %d×%d bounds (note: Grow never shrinks)",
			row, col, m.NumRows, m.NumCols))
	}
	m.Rows = append(m.Rows, row)
	m.Cols = append(m.Cols, col)
	m.Vals = append(m.Vals, v)
}

// Grow enlarges the logical dimensions (never shrinks); used when new
// graph nodes are appended by observation point insertion. Negative
// arguments are rejected loudly — they are always a caller bug, and
// silently ignoring them used to surface later as a confusing Append
// panic against the unchanged bounds.
func (m *COO) Grow(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: Grow(%d,%d) with negative dimensions", rows, cols))
	}
	if rows > m.NumRows {
		m.NumRows = rows
	}
	if cols > m.NumCols {
		m.NumCols = cols
	}
}

// NNZ returns the number of stored tuples.
func (m *COO) NNZ() int { return len(m.Vals) }

// Clone deep-copies the matrix.
func (m *COO) Clone() *COO {
	return &COO{
		NumRows: m.NumRows, NumCols: m.NumCols,
		Rows: append([]int32(nil), m.Rows...),
		Cols: append([]int32(nil), m.Cols...),
		Vals: append([]float64(nil), m.Vals...),
	}
}

// MulDense computes dst = m·x by scattering tuples; dst must be
// NumRows×x.Cols. COO multiplication requires no conversion, which is
// what makes the incremental flow cheap between insertions.
func (m *COO) MulDense(dst, x *tensor.Dense) {
	if x.Rows != m.NumCols || dst.Rows != m.NumRows || dst.Cols != x.Cols {
		panic("sparse: COO MulDense shape mismatch")
	}
	dst.Zero()
	for i, v := range m.Vals {
		r, c := m.Rows[i], m.Cols[i]
		drow := dst.Row(int(r))
		xrow := x.Row(int(c))
		for j, xv := range xrow {
			drow[j] += v * xv
		}
	}
}

// ToCSR converts to CSR, summing duplicates.
func (m *COO) ToCSR() *CSR { return m.ToCSRInto(nil) }

// ToCSRInto is ToCSR writing into dst's backing arrays when their
// capacity allows, reallocating with headroom otherwise. A nil dst
// allocates fresh. Returns dst. The incremental OPI loop rebuilds the
// adjacency CSR after every insertion; reusing the previous build's
// arrays makes the rebuild allocation-free in steady state. dst must
// not be read concurrently with the conversion, and must not alias a
// CSR the caller still needs.
func (m *COO) ToCSRInto(dst *CSR) *CSR {
	if dst == nil {
		dst = &CSR{}
	}
	dst.NumRows, dst.NumCols = m.NumRows, m.NumCols
	dst.RowPtr = growInt32(dst.RowPtr, m.NumRows+1)
	dst.ColIdx = growInt32(dst.ColIdx, len(m.Vals))
	dst.Vals = growFloat64(dst.Vals, len(m.Vals))
	rowPtr := dst.RowPtr
	for i := range rowPtr {
		rowPtr[i] = 0
	}
	for _, r := range m.Rows {
		rowPtr[r+1]++
	}
	for i := 1; i <= m.NumRows; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	// Scatter with rowPtr[r] as the per-row write cursor, then shift the
	// cursors (now row ends) back into start form — a counting-sort trick
	// that removes the per-call `next` scratch array the old code kept.
	for i, v := range m.Vals {
		r := m.Rows[i]
		p := rowPtr[r]
		dst.ColIdx[p] = m.Cols[i]
		dst.Vals[p] = v
		rowPtr[r] = p + 1
	}
	copy(rowPtr[1:], rowPtr[:m.NumRows])
	rowPtr[0] = 0
	dst.sumDuplicatesInPlace()
	return dst
}

// growInt32 reslices buf to length n, reallocating with 25% headroom
// when capacity is insufficient.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, n+n/4)
	}
	return buf[:n]
}

// growFloat64 is growInt32 for float64 buffers.
func growFloat64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/4)
	}
	return buf[:n]
}

// CSR is a sparse matrix in compressed sparse row format. Row i's entries
// occupy ColIdx/Vals[RowPtr[i]:RowPtr[i+1]].
type CSR struct {
	// NumRows and NumCols are the logical matrix dimensions.
	NumRows, NumCols int
	// RowPtr has length NumRows+1; row i's entries span
	// [RowPtr[i], RowPtr[i+1]).
	RowPtr []int32
	// ColIdx holds the column index of each stored entry.
	ColIdx []int32
	// Vals holds each entry's value, parallel to ColIdx.
	Vals []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Vals) }

// dedupScratch is the reused column-stamp scratch for duplicate
// merging: stamp[c] holds the generation that last saw column c and
// pos[c] where that entry was written. Bumping gen once per row
// invalidates every stamp at once, so the arrays are never cleared —
// the epoch trick. Replaces the map[int32]int32 the old code allocated
// on every CSR conversion (a hot allocation in the incremental OPI
// loop, which rebuilds CSR after each insertion).
type dedupScratch struct {
	stamp []int64
	pos   []int32
	gen   int64
}

// dedupScratches keeps the scratch on a par.Free list rather than in a
// sync.Pool, which drops items at every collection (and, under the race
// detector, at random), so a steady-state rebuild never allocates.
var dedupScratches = par.NewFree[dedupScratch]()

// sumDuplicatesInPlace merges duplicate column entries within each row
// (rows keep their relative order; columns need not be sorted). The
// compaction is fully in place: row r's old bounds are read before
// RowPtr[r] is overwritten, and the write cursor never outruns the read
// cursor, so no output array is allocated either.
func (m *CSR) sumDuplicatesInPlace() {
	s := dedupScratches.Get()
	if len(s.stamp) < m.NumCols {
		s.stamp = make([]int64, m.NumCols)
		s.pos = make([]int32, m.NumCols)
		s.gen = 0 // fresh zeroed stamps; generations restart above 0
	}
	var w int32
	for r := 0; r < m.NumRows; r++ {
		s.gen++
		start, end := m.RowPtr[r], m.RowPtr[r+1]
		m.RowPtr[r] = w
		for p := start; p < end; p++ {
			c := m.ColIdx[p]
			if s.stamp[c] == s.gen {
				m.Vals[s.pos[c]] += m.Vals[p]
				continue
			}
			s.stamp[c] = s.gen
			s.pos[c] = w
			m.ColIdx[w] = c
			m.Vals[w] = m.Vals[p]
			w++
		}
	}
	m.RowPtr[m.NumRows] = w
	m.ColIdx = m.ColIdx[:w]
	m.Vals = m.Vals[:w]
	dedupScratches.Put(s)
}

// MulDense computes dst = m·x; dst must be NumRows×x.Cols.
func (m *CSR) MulDense(dst, x *tensor.Dense) {
	m.checkMul("MulDense", dst.Rows, dst.Cols, x.Rows, x.Cols)
	mulRows(m, dst, x, nil, 0, m.NumRows)
}

// checkMul panics unless dst (dstRows×dstCols) can hold m·x for an x of
// xRows×xCols.
func (m *CSR) checkMul(op string, dstRows, dstCols, xRows, xCols int) {
	if xRows != m.NumCols || dstRows != m.NumRows || dstCols != xCols {
		panic("sparse: CSR " + op + " shape mismatch")
	}
}

// mulRows is the one SpMM row kernel: for i in [lo, hi) it computes
// product row i, or row sel[i] when sel is set, into dst row i-lo. Every
// whole-matrix, banded, tiled, row-range and gathered product below runs
// it, so a row computed by any of them is bit-identical to the same row
// computed by any other. The adjacency values stay float64 (the CSR is
// shared by both precisions) and are converted to T per entry. As in
// tensor.MatMul, the column loop is unrolled by four without changing
// any element's operations or their order, so its speed does not depend
// on where the linker places it.
func mulRows[T tensor.Float](m *CSR, dst, x *tensor.Mat[T], sel []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		r := i
		if sel != nil {
			r = int(sel[i])
		}
		drow := dst.Row(i - lo)
		for j := range drow {
			drow[j] = 0
		}
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			v := T(m.Vals[p])
			xrow := x.Row(int(m.ColIdx[p]))
			j := 0
			for ; j+4 <= len(xrow); j += 4 {
				d, xv := drow[j:j+4:j+4], xrow[j:j+4:j+4]
				d[0] += v * xv[0]
				d[1] += v * xv[1]
				d[2] += v * xv[2]
				d[3] += v * xv[3]
			}
			for ; j < len(xrow); j++ {
				drow[j] += v * xrow[j]
			}
		}
	}
}

// MulTile computes rows [lo,hi) of m·x into dst, a tile of hi-lo rows.
// The tiled inference pass in internal/core aggregates one row tile at a
// time with it; like every product here it runs the one row kernel, so
// a tile row is bit-identical to the same row of a whole-matrix product.
func MulTile[T tensor.Float](m *CSR, dst, x *tensor.Mat[T], lo, hi int) {
	if x.Rows != m.NumCols || dst.Cols != x.Cols || lo < 0 || hi < lo || hi > m.NumRows || dst.Rows != hi-lo {
		panic("sparse: CSR MulTile shape mismatch")
	}
	countCall[T](hi - lo)
	mulRows(m, dst, x, nil, lo, hi)
}

// MulGather computes the listed rows of m·x: dst row i is row rows[i] of
// the product. dst must be len(rows)×x.Cols. The incremental-inference
// session uses it to refresh just a frontier of nodes, tile by tile,
// with the same row kernel, and therefore the same bits, as a
// whole-graph product.
func MulGather[T tensor.Float](m *CSR, dst, x *tensor.Mat[T], rows []int32) {
	if x.Rows != m.NumCols || dst.Rows != len(rows) || dst.Cols != x.Cols {
		panic("sparse: CSR MulGather shape mismatch")
	}
	countCall[T](len(rows))
	mulRows(m, dst, x, rows, 0, len(rows))
}

// countCall records one SpMM invocation over rows rows.
func countCall[T tensor.Float](rows int) {
	if is32[T]() {
		spmmF32Calls.Inc()
	}
	spmmCalls.Inc()
	spmmRows.Add(int64(rows))
}

// bandsPerWorker subdivides each worker's fair share into this many row
// bands. Bands are pulled dynamically, so a worker that lands on a
// denser-than-average band does not leave the others idle, and each
// band's dst/x working set is small enough to stay cache-resident.
const bandsPerWorker = 4

// nnzBands splits rows [0, len(rowPtr)-1) into at most n bands of
// near-equal nonzero count by binary-searching the RowPtr prefix sums.
// Bands never split a row; boundaries that would create an empty band
// are elided. Returns the band boundaries (first element 0, last
// numRows). Level-banded circuits have heavily skewed row densities, so
// equal-ROW chunks (the old scheme) leave workers idle; equal-NNZ bands
// balance actual work.
func nnzBands(rowPtr []int32, n int) []int32 { return nnzBandsInto(nil, rowPtr, n) }

// nnzBandsInto is nnzBands writing into buf's storage when its capacity
// allows.
func nnzBandsInto(buf, rowPtr []int32, n int) []int32 {
	rows := len(rowPtr) - 1
	total := int64(rowPtr[rows])
	if n < 1 {
		n = 1
	}
	bands := append(buf[:0], 0)
	for b := 1; b < n; b++ {
		target := int32(total * int64(b) / int64(n))
		r := sort.Search(rows, func(i int) bool { return rowPtr[i] >= target })
		if int32(r) > bands[len(bands)-1] {
			bands = append(bands, int32(r))
		}
	}
	if int32(rows) > bands[len(bands)-1] {
		bands = append(bands, int32(rows))
	}
	return bands
}

// Mul computes dst = m·x with rows partitioned across workers (workers
// <= 0 selects GOMAXPROCS; par.Workers clamps the count to
// min(GOMAXPROCS, NumCPU)). Work is split into nnz-balanced row bands
// (bandsPerWorker per worker) that the caller and the shared par helpers
// pull off one cursor. This is the CPU analogue of the paper's GPU SpMM,
// in either precision. Every row runs the same kernel whichever worker
// takes it, so the result is bit-identical to the serial product.
func Mul[T tensor.Float](m *CSR, dst, x *tensor.Mat[T], workers int) {
	m.checkMul("Mul", dst.Rows, dst.Cols, x.Rows, x.Cols)
	countCall[T](m.NumRows)
	workers = par.Workers(workers)
	// Serial fallback: with fewer than two rows per worker the fan-out
	// costs more than it saves.
	if workers == 1 || m.NumRows < 2*workers {
		mulRows(m, dst, x, nil, 0, m.NumRows)
		return
	}
	spmmParallelCalls.Inc()
	jobs := mulJobs[T]()
	j := jobs.Get()
	j.m, j.dst, j.x = m, dst, x
	j.bands = nnzBandsInto(j.bands, m.RowPtr, workers*bandsPerWorker)
	par.For(workers, len(j.bands)-1, j)
	j.m, j.dst, j.x = nil, nil, nil
	jobs.Put(j)
}

// mulJob is one parallel product: its operands and band boundaries.
// Jobs are kept on a free list per precision (with their band buffer),
// so a steady-state parallel product allocates nothing.
type mulJob[T tensor.Float] struct {
	m      *CSR
	dst, x *tensor.Mat[T]
	bands  []int32
}

var (
	mulJobs64 = par.NewFree[mulJob[float64]]()
	mulJobs32 = par.NewFree[mulJob[float32]]()
)

func mulJobs[T tensor.Float]() par.Free[mulJob[T]] {
	if f, ok := any(mulJobs32).(par.Free[mulJob[T]]); ok {
		return f
	}
	return any(mulJobs64).(par.Free[mulJob[T]])
}

// Do multiplies band i.
func (j *mulJob[T]) Do(i int) {
	lo, hi := int(j.bands[i]), int(j.bands[i+1])
	mulRows(j.m, j.dst.RowRange(lo, hi), j.x, nil, lo, hi)
}

// is32 reports whether T is float32.
func is32[T tensor.Float]() bool {
	_, ok := any(*new(T)).(float32)
	return ok
}

// MulDenseParallel is Mul in float64.
func (m *CSR) MulDenseParallel(dst, x *tensor.Dense, workers int) { Mul(m, dst, x, workers) }

// MulDenseTrans computes dst = mᵀ·x; dst must be NumCols×x.Cols. Used by
// backpropagation (∂L/∂E_{d-1} includes Aᵀ·δ).
func (m *CSR) MulDenseTrans(dst, x *tensor.Dense) {
	if x.Rows != m.NumRows || dst.Rows != m.NumCols || dst.Cols != x.Cols {
		panic("sparse: CSR MulDenseTrans shape mismatch")
	}
	dst.Zero()
	for r := 0; r < m.NumRows; r++ {
		xrow := x.Row(r)
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			v := m.Vals[p]
			drow := dst.Row(int(m.ColIdx[p]))
			for j, xv := range xrow {
				drow[j] += v * xv
			}
		}
	}
}

// Transpose returns mᵀ as a new CSR.
func (m *CSR) Transpose() *CSR { return m.TransposeInto(nil) }

// TransposeInto is Transpose writing into dst's backing arrays when
// their capacity allows, reallocating with headroom otherwise. A nil
// dst allocates fresh. dst must not be m itself. Returns dst.
func (m *CSR) TransposeInto(dst *CSR) *CSR {
	if dst == m {
		panic("sparse: TransposeInto dst must not alias the receiver")
	}
	if dst == nil {
		dst = &CSR{}
	}
	dst.NumRows, dst.NumCols = m.NumCols, m.NumRows
	dst.RowPtr = growInt32(dst.RowPtr, m.NumCols+1)
	dst.ColIdx = growInt32(dst.ColIdx, len(m.Vals))
	dst.Vals = growFloat64(dst.Vals, len(m.Vals))
	rowPtr := dst.RowPtr
	for i := range rowPtr {
		rowPtr[i] = 0
	}
	for _, c := range m.ColIdx {
		rowPtr[c+1]++
	}
	for i := 1; i <= m.NumCols; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	// Same cursor-then-shift trick as ToCSRInto: no `next` scratch.
	for r := 0; r < m.NumRows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			c := m.ColIdx[p]
			q := rowPtr[c]
			dst.ColIdx[q] = int32(r)
			dst.Vals[q] = m.Vals[p]
			rowPtr[c] = q + 1
		}
	}
	copy(rowPtr[1:], rowPtr[:m.NumCols])
	rowPtr[0] = 0
	return dst
}

// ToDense materializes the matrix; intended for tests and tiny examples.
func (m *CSR) ToDense() *tensor.Dense {
	d := tensor.NewDense(m.NumRows, m.NumCols)
	for r := 0; r < m.NumRows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			d.Set(r, int(m.ColIdx[p]), d.At(r, int(m.ColIdx[p]))+m.Vals[p])
		}
	}
	return d
}

// Sparsity returns the fraction of zero entries, the statistic the paper
// reports as "higher than 99.95%" on its benchmarks.
func (m *CSR) Sparsity() float64 {
	total := float64(m.NumRows) * float64(m.NumCols)
	if total == 0 {
		return 1
	}
	return 1 - float64(m.NNZ())/total
}
