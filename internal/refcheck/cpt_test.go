package refcheck

import (
	"testing"

	"repro/internal/circuitgen"
)

// TestApproximateDetectionMostlyMatchesExact pins the one load-bearing
// fact about the fast critical-path-tracing detection criterion: over
// the seeded differential circuits, the patterns it calls detecting are
// overwhelmingly real detections under exact fault injection.
func TestApproximateDetectionMostlyMatchesExact(t *testing.T) {
	agree, compared := 0, 0
	for i, cfg := range RandomConfigs(42, 60) {
		a, c := CPTAgreement(circuitgen.Generate("cpt", cfg), int64(3000+i), 24)
		agree += a
		compared += c
	}
	if compared == 0 {
		t.Fatal("no faults compared")
	}
	frac := float64(agree) / float64(compared)
	if frac < 0.9 {
		t.Errorf("approximate detection unsound too often: %.3f agreement over %d faults", frac, compared)
	}
	t.Logf("CPT-vs-exact agreement on detecting patterns: %.3f (%d faults)", frac, compared)
}
