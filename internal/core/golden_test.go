//go:build amd64

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The SHA-256 of the trained parameters and the bits of each epoch's loss,
// recorded with the pure-Go MatMul loops before the AVX2 kernel existed.
//
// They pin the whole training run, not the GEMM alone: the circuitgen
// design (testGraph), SCOAP features, DefaultConfig, DefaultTrainOptions,
// parameter init, the loss, backpropagation and the SGD step all feed
// them, as well as MatMul and Affine. A mismatch therefore says only that
// some bit moved; TestKernelMatchesPureGo (internal/tensor) says whether
// the kernel is the cause. To re-record after an intended change to
// training, make that change without touching internal/tensor, check that
// TestKernelMatchesPureGo passes, and copy the values this test reports
// into the constants. Then confirm the Go loops give the same values: in a
// scratch copy, set useAVX2 to false in internal/tensor/affine_amd64.go
// and run this test there. A change to the GEMM itself must pass with the
// constants as they are.
const goldenParamsSHA256 = "acca7029d30bd7c6cde938b7e5446bdd07c2740652da9a059f4cccd1a5285ba6"

var goldenLossBits = []uint64{0x3fe8a1de1f1a142c, 0x3fe311a64451fabd}

// TestTrainingBitsPinned trains the default model for two epochs on a
// seeded circuitgen design and compares the SHA-256 of every parameter
// and the bits of each epoch's mean loss with the values above. The GEMM
// runs the AVX2 kernel on a host that has it and the Go loops otherwise;
// both must reproduce them. Other architectures may fuse a multiply and
// an add in the Go loops, so this runs on amd64 only.
func TestTrainingBitsPinned(t *testing.T) {
	g := testGraph(7, 1500)
	cfg := DefaultConfig()
	cfg.Seed = 1
	m := MustNewModel(cfg)
	opt := DefaultTrainOptions()
	opt.Epochs = 2
	losses, err := Train(m, []*Graph{g}, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range m.Params() {
		if err := binary.Write(h, binary.LittleEndian, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	sum := fmt.Sprintf("%x", h.Sum(nil))
	bits := make([]uint64, len(losses))
	for i, l := range losses {
		bits[i] = math.Float64bits(l)
	}
	if sum != goldenParamsSHA256 {
		t.Errorf("trained parameters hash %s, want %s", sum, goldenParamsSHA256)
	}
	if fmt.Sprint(bits) != fmt.Sprint(goldenLossBits) {
		t.Errorf("per-epoch loss bits %#x, want %#x", bits, goldenLossBits)
	}
}
