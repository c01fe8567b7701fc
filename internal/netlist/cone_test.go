package netlist_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/netlist"
)

// refCone is the map-based breadth-first traversal the cones are pinned
// to: the same discovery order and the same cut at limit.
func refCone(id int32, limit int, next func(int32) []int32) []int32 {
	visited := map[int32]bool{id: true}
	queue := []int32{id}
	var out []int32
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range next(v) {
			if visited[u] {
				continue
			}
			visited[u] = true
			out = append(out, u)
			queue = append(queue, u)
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// checkCones compares both cones of every stride-th cell of n, starting
// at first, with the reference at limits 0, 1, 7 and 500.
func checkCones(n *netlist.Netlist, first, stride int) error {
	for id := int32(first); id < int32(n.NumGates()); id += int32(stride) {
		for _, limit := range []int{0, 1, 7, 500} {
			if got, want := n.FaninCone(id, limit), refCone(id, limit, n.Fanin); !slices.Equal(got, want) {
				return fmt.Errorf("FaninCone(%d, %d) = %v, reference %v", id, limit, got, want)
			}
			if got, want := n.FanoutCone(id, limit), refCone(id, limit, n.Fanout); !slices.Equal(got, want) {
				return fmt.Errorf("FanoutCone(%d, %d) = %v, reference %v", id, limit, got, want)
			}
		}
	}
	return nil
}

// TestConesMatchMapReference: FaninCone and FanoutCone are == the
// map-based reference, element for element, on seeded designs of
// different sizes (so the kept mark arrays are reused across netlists
// and grown), first in sequence and then from four goroutines at once,
// as the insertion flow's ranking extracts cones on the par helpers.
func TestConesMatchMapReference(t *testing.T) {
	for i, gates := range []int{1500, 300, 3000} {
		n := circuitgen.Generate("cones", circuitgen.Config{Seed: int64(i + 1), NumGates: gates})
		n.FanoutCone(0, 1) // builds the lazy fanout cache before the goroutines read it
		if err := checkCones(n, 0, 3); err != nil {
			t.Fatalf("%d gates, in sequence: %v", gates, err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := checkCones(n, w, 4); err != nil {
					t.Errorf("%d gates, goroutine %d: %v", gates, w, err)
				}
			}()
		}
		wg.Wait()
	}
}
