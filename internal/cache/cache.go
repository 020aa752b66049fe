// Package cache models set-associative caches with the features the
// paper's analysis depends on: per-line prefetch bits (to classify
// useful vs. useless prefetches, Section III-E), miss status holding
// registers and a fill buffer (to classify timely vs. untimely
// prefetches, Section III-C), and pluggable replacement.
package cache

import (
	"fmt"
	"math/bits"

	"udpsim/internal/isa"
)

// ReplacementPolicy selects the victim way within a set.
type ReplacementPolicy uint8

// Replacement policies.
const (
	LRU ReplacementPolicy = iota
	FIFO
	Random
)

func (p ReplacementPolicy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// line is one cache line's metadata. The simulator tracks no data bytes:
// only presence and provenance matter for timing.
type line struct {
	tag      uint64
	valid    bool
	prefetch bool // set when installed by a prefetch, cleared on demand hit
	// offPath records that the installing prefetch was emitted on the
	// wrong path (UDP learns from demand hits on such lines).
	offPath bool
	stamp   uint64 // LRU: last-use cycle; FIFO: insert cycle
}

// Config describes a cache's geometry.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	Policy     ReplacementPolicy
	HitLatency int // cycles
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	if c.LineBytes == 0 {
		c.LineBytes = isa.LineBytes
	}
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: size and ways must be positive", c.Name)
	}
	lb := c.LineBytes
	if lb == 0 {
		lb = isa.LineBytes
	}
	if lb < 0 || lb&(lb-1) != 0 {
		return fmt.Errorf("cache %s: line size %d is not a power of two", c.Name, lb)
	}
	if c.SizeBytes%(c.Ways*lb) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*linesize %d", c.Name, c.SizeBytes, c.Ways*lb)
	}
	sets := c.SizeBytes / (c.Ways * lb)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Stats accumulates cache events.
type Stats struct {
	Hits            uint64
	Misses          uint64
	PrefetchHits    uint64 // demand hits on lines installed by prefetch
	Inserts         uint64
	PrefetchInserts uint64
	Evictions       uint64
	// UselessPrefetchEvictions counts lines evicted with the prefetch
	// bit still set: they were brought in by a prefetch and never
	// touched by a demand access — the paper's "useless prefetch".
	UselessPrefetchEvictions uint64
	// Invalidations counts explicit line invalidations.
	Invalidations uint64
}

// MPKI returns misses per kilo-event given an instruction count.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) / float64(instructions) * 1000
}

// HitRate returns hits/(hits+misses).
func (s *Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative cache over line addresses.
type Cache struct {
	cfg       Config
	sets      [][]line
	setMask   uint64
	setShift  uint64 // log2 of the set count: tag = line number >> setShift
	lineShift uint64 // log2 of the line size: line number = address >> lineShift
	rngState  uint64
	Stats     Stats
}

// New builds a cache from cfg, panicking on invalid geometry (a
// programming error: geometries come from static configuration).
func New(cfg Config) *Cache {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = isa.LineBytes
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	sets := make([][]line, nsets)
	backing := make([]line, nsets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   uint64(nsets - 1),
		setShift:  uint64(bits.TrailingZeros64(uint64(nsets))),
		lineShift: uint64(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		rngState:  0x853c49e6748fea9b,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(lineAddr isa.Addr) (set uint64, tag uint64) {
	n := uint64(lineAddr) >> c.lineShift
	return n & c.setMask, n >> c.setShift
}

// Lookup probes the cache without updating replacement state or stats.
func (c *Cache) Lookup(lineAddr isa.Addr) bool {
	set, tag := c.index(lineAddr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

// AccessResult describes the outcome of a demand access.
type AccessResult struct {
	Hit bool
	// WasPrefetched is set when the access hit a line whose prefetch bit
	// was still set, i.e. this demand access is the first use of a
	// prefetched line (a "useful prefetch" event).
	WasPrefetched bool
	// WasOffPathPrefetch further qualifies WasPrefetched: the prefetch
	// had been emitted on the wrong path (a *useful off-path prefetch*,
	// the event UDP's useful-set learns from).
	WasOffPathPrefetch bool
}

// Access performs a demand access at the given cycle: on hit it updates
// replacement state and clears the prefetch bit.
func (c *Cache) Access(lineAddr isa.Addr, cycle uint64) AccessResult {
	set, tag := c.index(lineAddr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			c.Stats.Hits++
			res := AccessResult{Hit: true, WasPrefetched: ln.prefetch, WasOffPathPrefetch: ln.prefetch && ln.offPath}
			if ln.prefetch {
				c.Stats.PrefetchHits++
				ln.prefetch = false
				ln.offPath = false
			}
			if c.cfg.Policy == LRU {
				ln.stamp = cycle
			}
			return res
		}
	}
	c.Stats.Misses++
	return AccessResult{}
}

// Eviction describes a line displaced by Insert.
type Eviction struct {
	LineAddr isa.Addr
	Valid    bool
	// WasUnusedPrefetch is set when the victim still had its prefetch
	// bit set: the prefetch was useless.
	WasUnusedPrefetch bool
	// WasOffPath qualifies WasUnusedPrefetch with the prefetch's path.
	WasOffPath bool
}

// Insert fills lineAddr, selecting a victim by the configured policy.
// isPrefetch marks the line's prefetch bit.
func (c *Cache) Insert(lineAddr isa.Addr, cycle uint64, isPrefetch bool) Eviction {
	return c.InsertPath(lineAddr, cycle, isPrefetch, false)
}

// InsertPath is Insert with explicit wrong-path provenance for
// prefetched lines.
func (c *Cache) InsertPath(lineAddr isa.Addr, cycle uint64, isPrefetch, offPath bool) Eviction {
	set, tag := c.index(lineAddr)
	ways := c.sets[set]
	// Already present (e.g. racing fill): refresh, preserving a clear
	// prefetch bit if the line was already demanded.
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			if c.cfg.Policy == LRU {
				ways[i].stamp = cycle
			}
			return Eviction{}
		}
	}
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	var ev Eviction
	if victim < 0 {
		victim = c.pickVictim(ways)
		v := &ways[victim]
		ev = Eviction{
			LineAddr:          c.reconstruct(set, v.tag),
			Valid:             true,
			WasUnusedPrefetch: v.prefetch,
			WasOffPath:        v.prefetch && v.offPath,
		}
		c.Stats.Evictions++
		if v.prefetch {
			c.Stats.UselessPrefetchEvictions++
		}
	}
	ways[victim] = line{tag: tag, valid: true, prefetch: isPrefetch, offPath: isPrefetch && offPath, stamp: cycle}
	c.Stats.Inserts++
	if isPrefetch {
		c.Stats.PrefetchInserts++
	}
	return ev
}

// Invalidate removes lineAddr if present, reporting whether it was an
// unused prefetch.
func (c *Cache) Invalidate(lineAddr isa.Addr) (present, wasUnusedPrefetch bool) {
	set, tag := c.index(lineAddr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			c.Stats.Invalidations++
			wasUnusedPrefetch = ln.prefetch
			ln.valid = false
			return true, wasUnusedPrefetch
		}
	}
	return false, false
}

// PrefetchBit reports whether lineAddr is present with its prefetch bit
// still set.
func (c *Cache) PrefetchBit(lineAddr isa.Addr) bool {
	set, tag := c.index(lineAddr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return c.sets[set][i].prefetch
		}
	}
	return false
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}

// Capacity returns the total number of lines.
func (c *Cache) Capacity() int { return len(c.sets) * c.cfg.Ways }

// Flush invalidates every line, counting still-unused prefetched lines
// as useless.
func (c *Cache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].prefetch {
				c.Stats.UselessPrefetchEvictions++
			}
			set[i] = line{}
		}
	}
}

func (c *Cache) pickVictim(ways []line) int {
	switch c.cfg.Policy {
	case Random:
		c.rngState = c.rngState*6364136223846793005 + 1442695040888963407
		return int((c.rngState >> 33) % uint64(len(ways)))
	default: // LRU and FIFO both evict the smallest stamp
		victim := 0
		for i := 1; i < len(ways); i++ {
			if ways[i].stamp < ways[victim].stamp {
				victim = i
			}
		}
		return victim
	}
}

func (c *Cache) reconstruct(set, tag uint64) isa.Addr {
	n := tag<<c.setShift | set
	return isa.Addr(n << c.lineShift)
}
