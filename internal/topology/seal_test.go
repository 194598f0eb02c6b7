package topology

import (
	"sync"
	"testing"

	"diversify/internal/exploits"
)

// TestConnectAfterSealInvalidates exercises mutation-after-seal: the
// sealed CSR layout must be rebuilt after Connect/AddNode so reads never
// serve stale adjacency.
func TestConnectAfterSealInvalidates(t *testing.T) {
	tp := New()
	a := tp.AddNode("a", KindHMI, ZoneControl, nil)
	b := tp.AddNode("b", KindEngWorkstation, ZoneControl, nil)
	tp.Connect(a, b, MediumLAN, "")
	if got := tp.Neighbors(a); len(got) != 1 || got[0].Node != b {
		t.Fatalf("pre-mutation neighbors = %+v", got)
	}
	// Mutate after the first read sealed the topology.
	c := tp.AddNode("c", KindPLC, ZoneField, nil)
	tp.Connect(a, c, MediumFieldbus, "")
	got := tp.Neighbors(a)
	if len(got) != 2 || got[0].Node != b || got[1].Node != c {
		t.Fatalf("post-mutation neighbors = %+v, want [b c]", got)
	}
	if nk := tp.NodesOfKind(KindPLC); len(nk) != 1 || nk[0] != c {
		t.Fatalf("post-mutation NodesOfKind(PLC) = %v", nk)
	}
	if v := tp.NeighborsByVector(a, exploits.VectorRemote); len(v) != 2 {
		t.Fatalf("post-mutation remote view = %+v", v)
	}
	// Sneakernet edge appears only in the USB view.
	d := tp.AddNode("d", KindCorporatePC, ZoneCorporate, nil)
	tp.Connect(a, d, MediumSneakernet, "")
	if v := tp.NeighborsByVector(a, exploits.VectorUSB); len(v) != 1 || v[0].Node != d {
		t.Fatalf("post-mutation usb view = %+v", v)
	}
}

// TestNeighborsSortedAndShared pins the sealed-view contract: sorted by
// node ID and stable (repeated calls return the identical backing span).
func TestNeighborsSortedAndShared(t *testing.T) {
	tp := NewTieredSCADA(DefaultTieredSpec())
	for _, n := range tp.Nodes() {
		nbs := tp.Neighbors(n.ID)
		for i := 1; i < len(nbs); i++ {
			if nbs[i-1].Node > nbs[i].Node {
				t.Fatalf("neighbors of %d not sorted: %+v", n.ID, nbs)
			}
		}
		again := tp.Neighbors(n.ID)
		if len(nbs) > 0 && &nbs[0] != &again[0] {
			t.Fatalf("neighbors of %d reallocated between calls", n.ID)
		}
	}
}

// TestConcurrentNeighborsByVector drives the sealed views from many
// goroutines against a freshly built (unsealed) topology, the same shape
// des.Replicate workers produce. Run under -race this proves the lazy
// seal build and the shared views are concurrency-safe.
func TestConcurrentNeighborsByVector(t *testing.T) {
	tp := NewTieredSCADA(DefaultTieredSpec())
	vectors := []exploits.Vector{exploits.VectorUSB, exploits.VectorAdjacent, exploits.VectorRemote}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				total := 0
				for _, n := range tp.Nodes() {
					for _, v := range vectors {
						total += len(tp.NeighborsByVector(n.ID, v))
					}
					total += len(tp.Neighbors(n.ID))
				}
				if total == 0 {
					t.Errorf("worker %d: empty adjacency", worker)
					return
				}
				if tp.ShortestPath(tp.NodesOfKind(KindCorporatePC)[0], tp.NodesOfKind(KindPLC)[0]) == nil {
					t.Errorf("worker %d: lost corporate→PLC path", worker)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkNeighbors(b *testing.B) {
	tp := NewTieredSCADA(DefaultTieredSpec())
	engs := tp.NodesOfKind(KindEngWorkstation)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tp.Neighbors(engs[i%len(engs)])) == 0 {
			b.Fatal("no neighbors")
		}
	}
}
