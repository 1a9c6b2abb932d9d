// Package osnt_test holds the repository-level benchmark harness.
// BenchmarkDrivers runs every entry of experiments.Drivers — the timed
// runs that cmd/benchgate also gates — as one sub-benchmark, so
// `go test -bench=. -benchmem` both exercises the full stack and
// reports how much host CPU each driver costs. A driver that breaks its
// checks fails its sub-benchmark. The tables themselves are printed by
// `go run ./cmd/osnt-bench` and recorded in EXPERIMENTS.md.
package osnt_test

import (
	"testing"

	"osnt/internal/experiments"
)

func BenchmarkDrivers(b *testing.B) {
	for _, d := range experiments.Drivers {
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
