package cache

import "udpsim/internal/isa"

// MSHR is one miss-status holding register: an in-flight fill for a cache
// line. Entries double as the fill buffer in the paper's terminology —
// a demand access that finds its line in an MSHR "hits the fill buffer"
// and pays only the remaining latency. That event is exactly what the
// paper counts as an *untimely* (but still useful) prefetch hit.
type MSHR struct {
	LineAddr isa.Addr
	Valid    bool
	// Prefetch is true while the fill was initiated by a prefetch and no
	// demand access has merged into it yet.
	Prefetch bool
	// DemandMerged is set when a demand access merged into a
	// prefetch-initiated fill (the "fill buffer hit").
	DemandMerged bool
	// IssueCycle is when the fill was initiated.
	IssueCycle uint64
	// ReadyCycle is when the line data arrives and may be installed.
	ReadyCycle uint64
	// OffPath is true when the initiating prefetch was emitted while the
	// frontend was on the wrong path (carried through so usefulness can
	// be attributed to off-path prefetches).
	OffPath bool
}

// MSHRStats counts MSHR file events.
type MSHRStats struct {
	Allocations         uint64
	PrefetchAllocations uint64
	DemandMerges        uint64 // demand access found the line in flight
	PrefetchMerges      uint64 // prefetch found the line already in flight
	AllocFailures       uint64 // all entries busy
	Completions         uint64
}

// MSHRFile is a fixed-capacity collection of MSHRs. Occupancy and the
// earliest in-flight completion cycle are tracked incrementally so the
// per-cycle Completed sweep is O(1) when nothing can complete — the
// file sits on the simulator's hot loop at every cache level.
//
// Each slot's line address and ready cycle are also kept in two dense
// arrays, one 8-byte word per slot in slot order, so Lookup and
// Allocate scan lines and Completed scans ready without touching the
// full records. A free slot holds freeLine and neverReady.
type MSHRFile struct {
	entries   []MSHR
	lines     []isa.Addr // entries[i].LineAddr, or freeLine
	ready     []uint64   // entries[i].ReadyCycle, or neverReady
	occupied  int
	nextReady uint64 // earliest ReadyCycle among valid entries (neverReady when empty)
	gen       uint64 // membership generation (see Generation)
	Stats     MSHRStats
}

// neverReady is the nextReady sentinel for an empty file and the ready
// word of a free slot.
const neverReady = ^uint64(0)

// freeLine is the line word of a free slot. It is not line-aligned, so
// no line address equals it.
const freeLine = ^isa.Addr(0)

// NewMSHRFile builds a file with n entries.
func NewMSHRFile(n int) *MSHRFile {
	if n <= 0 {
		panic("cache: MSHR file needs at least one entry")
	}
	f := &MSHRFile{
		entries:   make([]MSHR, n),
		lines:     make([]isa.Addr, n),
		ready:     make([]uint64, n),
		nextReady: neverReady,
	}
	f.freeAll()
	return f
}

// Generation counts changes to the file's membership: every successful
// Allocate, every entry freed by Completed, and every Flush advance it.
// While it is unchanged, the set of in-flight lines (and so Lookup and
// Full) answer exactly as they did when it was read. It is zero only
// before the first change, so a full file never reports zero.
func (f *MSHRFile) Generation() uint64 { return f.gen }

// Lookup returns the in-flight entry for lineAddr, or nil.
func (f *MSHRFile) Lookup(lineAddr isa.Addr) *MSHR {
	if f.occupied == 0 {
		return nil
	}
	for i, l := range f.lines {
		if l == lineAddr {
			return &f.entries[i]
		}
	}
	return nil
}

// Allocate reserves an entry for a new fill. It returns nil when the file
// is full (the requester must retry or stall).
func (f *MSHRFile) Allocate(lineAddr isa.Addr, issue, ready uint64, prefetch, offPath bool) *MSHR {
	if f.occupied < len(f.lines) {
		for i, l := range f.lines {
			if l != freeLine {
				continue
			}
			f.lines[i] = lineAddr
			f.ready[i] = ready
			f.entries[i] = MSHR{
				LineAddr:   lineAddr,
				Valid:      true,
				Prefetch:   prefetch,
				IssueCycle: issue,
				ReadyCycle: ready,
				OffPath:    offPath,
			}
			f.Stats.Allocations++
			if prefetch {
				f.Stats.PrefetchAllocations++
			}
			f.occupied++
			f.gen++
			if ready < f.nextReady {
				f.nextReady = ready
			}
			return &f.entries[i]
		}
	}
	f.Stats.AllocFailures++
	return nil
}

// MergeDemand records a demand access merging into an in-flight fill.
// It returns the cycle at which the data will be available.
func (f *MSHRFile) MergeDemand(m *MSHR) uint64 {
	if m.Prefetch && !m.DemandMerged {
		m.DemandMerged = true
		f.Stats.DemandMerges++
	}
	return m.ReadyCycle
}

// Completed collects entries whose fills have arrived by cycle, invoking
// install for each, in slot order, and freeing them. The install
// callback receives the finished entry by value. The sweep is skipped
// entirely when no entry can have completed (the common per-cycle case).
func (f *MSHRFile) Completed(cycle uint64, install func(MSHR)) {
	if f.occupied == 0 || cycle < f.nextReady {
		return
	}
	// Recompute from scratch: reset to the sentinel so an install
	// callback that re-Allocates into this file lowers it via Allocate,
	// then fold in the minimum over the surviving entries below.
	f.nextReady = neverReady
	next := uint64(neverReady)
	for i, r := range f.ready {
		if r > cycle {
			if r < next {
				next = r
			}
			continue
		}
		if f.lines[i] == freeLine {
			continue // a free slot's neverReady: only Drain's cycle reaches it
		}
		e := f.entries[i]
		f.entries[i].Valid = false
		f.lines[i] = freeLine
		f.ready[i] = neverReady
		f.occupied--
		f.gen++
		f.Stats.Completions++
		install(e)
	}
	if next < f.nextReady {
		f.nextReady = next
	}
}

// Occupancy returns the number of in-flight entries.
func (f *MSHRFile) Occupancy() int { return f.occupied }

// Capacity returns the file size.
func (f *MSHRFile) Capacity() int { return len(f.entries) }

// Full reports whether no entry is free.
func (f *MSHRFile) Full() bool { return f.occupied == len(f.entries) }

// Flush drops all in-flight entries (used only by tests and machine
// reset; real fills are never cancelled mid-flight by the frontend).
func (f *MSHRFile) Flush() {
	f.freeAll()
	f.occupied = 0
	f.nextReady = neverReady
	f.gen++
}

// freeAll marks every slot free.
func (f *MSHRFile) freeAll() {
	for i := range f.entries {
		f.entries[i].Valid = false
		f.lines[i] = freeLine
		f.ready[i] = neverReady
	}
}
