package cache

import (
	"fmt"
	"testing"

	"udpsim/internal/isa"
)

// BenchmarkCacheAccess measures one demand probe of the default L1D
// geometry (48 KiB, 12 ways): "hit" cycles over resident lines, "miss"
// over lines mapping to the same sets that are never installed. Both
// must not allocate (CI's allocs/op gate covers this package).
func BenchmarkCacheAccess(b *testing.B) {
	const lines = 512
	for _, bc := range []struct {
		name string
		base isa.Addr
	}{{"hit", 0}, {"miss", 1 << 30}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(Config{Name: "L1D", SizeBytes: 48 * 1024, Ways: 12, Policy: LRU})
			for i := 0; i < lines; i++ {
				c.Insert(ln(i), uint64(i), false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(bc.base+ln(i%lines), uint64(i))
			}
		})
	}
}

// BenchmarkMSHRLookup measures an in-flight probe of a 32-entry file
// (the default L2's): "empty" is the common L2/LLC case, "full-miss"
// scans every valid entry without a match.
func BenchmarkMSHRLookup(b *testing.B) {
	for _, bc := range []struct {
		name string
		fill int
	}{{"empty", 0}, {"full-miss", 32}} {
		b.Run(bc.name, func(b *testing.B) {
			f := NewMSHRFile(32)
			for i := 0; i < bc.fill; i++ {
				f.Allocate(ln(i), 0, 1000, false, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if f.Lookup(ln(64+i%64)) != nil {
					b.Fatal("phantom entry")
				}
			}
		})
	}
}

// BenchmarkMSHRCompleted measures the per-cycle completion sweep of a
// file that stays full and turns one entry over every cycle, as a
// saturated L1D (16 entries) or L2 (32) file does: each op is one
// Completed call that frees and installs one fill, then the Allocate
// that takes its slot for a fill landing a file's length later.
func BenchmarkMSHRCompleted(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("turnover-%d", n), func(b *testing.B) {
			f := NewMSHRFile(n)
			for i := 0; i < n; i++ {
				f.Allocate(ln(i), 0, uint64(i+1), false, false)
			}
			var installed int
			install := func(MSHR) { installed++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle := uint64(i + 1)
				f.Completed(cycle, install)
				f.Allocate(ln(n+i), cycle, cycle+uint64(n), false, false)
			}
			b.StopTimer()
			if installed != b.N || !f.Full() {
				b.Fatalf("%d fills installed over %d cycles, file full %v: want one per cycle", installed, b.N, f.Full())
			}
		})
	}
}
