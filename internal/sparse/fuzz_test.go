package sparse_test

import (
	"math/rand"
	"testing"

	"repro/internal/refcheck"
	"repro/internal/sparse"
)

// FuzzSparseMul decodes arbitrary bytes into a small COO matrix
// (including duplicate coordinates, which every kernel must sum) and
// runs the full differential battery from internal/refcheck against the
// dense triple-loop reference: COO MulDense, CSR conversion, serial and
// parallel CSR products and the explicit transpose. Seed corpus lives in testdata/fuzz/FuzzSparseMul.
func FuzzSparseMul(f *testing.F) {
	f.Add([]byte{3, 4, 0, 0, 10, 1, 2, 250, 1, 2, 6, 2, 3, 128})
	f.Add([]byte{1, 1, 0, 0, 1})
	f.Add([]byte{8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows := 1 + int(data[0]%16)
		cols := 1 + int(data[1]%16)
		coo := sparse.NewCOO(rows, cols)
		seed := int64(len(data))
		for i := 2; i+2 < len(data) && coo.NNZ() < 96; i += 3 {
			r := int32(data[i]) % int32(rows)
			c := int32(data[i+1]) % int32(cols)
			v := float64(int8(data[i+2])) / 8
			coo.Append(r, c, v)
			seed = seed*131 + int64(data[i+2])
		}
		rng := rand.New(rand.NewSource(seed))
		if err := refcheck.CheckSparseOps(coo, 1+int(data[1]%3), rng); err != nil {
			t.Fatalf("%dx%d nnz=%d: %v", rows, cols, coo.NNZ(), err)
		}
	})
}
