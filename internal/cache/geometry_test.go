package cache_test

import (
	"testing"

	"udpsim/internal/cache"
	"udpsim/internal/isa"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// TestEvictionAddressRoundTrip checks that every cache geometry the
// simulator builds — the 32 KiB default and 40 KiB L1I, the L1D, the L2
// and the LLC, plus an L2 with 128-byte lines — reports an evicted line
// under the address it was inserted at, for every set and for tags up
// to the top of the address space the line and set shifts leave.
func TestEvictionAddressRoundTrip(t *testing.T) {
	def := sim.NewConfig(workload.MustByName("mysql"), sim.MechBaseline)
	geoms := []cache.Config{
		{Name: "L1I", SizeBytes: def.ICacheBytes, Ways: def.ICacheWays},
		{Name: "L1I-40K", SizeBytes: 40 * 1024, Ways: sim.AutoWays(40 * 1024)},
		{Name: "L1D", SizeBytes: def.L1DBytes, Ways: def.L1DWays},
		{Name: "L2", SizeBytes: def.L2Bytes, Ways: def.L2Ways},
		{Name: "LLC", SizeBytes: def.LLCBytes, Ways: def.LLCWays},
		{Name: "L2-128B", SizeBytes: def.L2Bytes, Ways: def.L2Ways, LineBytes: 128},
	}
	for _, g := range geoms {
		g.Policy = cache.LRU
		c := cache.New(g)
		sets := uint64(g.Sets())
		lineBytes := uint64(isa.LineBytes)
		if g.LineBytes != 0 {
			lineBytes = uint64(g.LineBytes)
		}
		maxTag := (^uint64(0) / lineBytes) / sets
		for set := uint64(0); set < sets; set++ {
			// Ways+1 distinct tags in one set: the last insert evicts
			// the first (the LRU way).
			tags := make([]uint64, g.Ways+1)
			for i := range tags {
				tags[i] = (set*7919 + uint64(i)*0x9e3779b97f4a7c15) % maxTag
			}
			tags[0] = maxTag // the widest tag the geometry can hold
			addr := func(tag uint64) isa.Addr { return isa.Addr((tag*sets + set) * lineBytes) }
			for i, tag := range tags[:g.Ways] {
				if ev := c.Insert(addr(tag), uint64(i+1), false); ev.Valid {
					t.Fatalf("%s set %d: premature eviction of %#x", g.Name, set, ev.LineAddr)
				}
			}
			ev := c.Insert(addr(tags[g.Ways]), uint64(g.Ways+1), false)
			if !ev.Valid || ev.LineAddr != addr(tags[0]) {
				t.Fatalf("%s set %d: evicted %#x (valid %v), want %#x", g.Name, set, ev.LineAddr, ev.Valid, addr(tags[0]))
			}
		}
	}
}
