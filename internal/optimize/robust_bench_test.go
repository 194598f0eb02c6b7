package optimize

import (
	"context"
	"path/filepath"
	"testing"
)

// BenchmarkOptimizeWarmStore measures a fully warm-started greedy run:
// every simulation is served from the durable evaluation store, so this
// bounds the cost of a re-optimization after a knob tweak.
func BenchmarkOptimizeWarmStore(b *testing.B) {
	o, err := ByName("greedy")
	if err != nil {
		b.Fatal(err)
	}
	store := filepath.Join(b.TempDir(), "evals.store")
	if _, err := RunWith(context.Background(), benchProblem(), o, RunOptions{StorePath: store}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(context.Background(), benchProblem(), o, RunOptions{StorePath: store}); err != nil {
			b.Fatal(err)
		}
	}
}
