// Package backend models the out-of-order execution engine of the
// simulated machine: decode/dispatch into a reorder buffer, a unified
// reservation-station budget, per-class functional units, load/store
// buffers with dcache access, execute-time branch resolution with
// recovery, and in-order retirement.
//
// Fidelity is calibrated to what the paper's experiments observe: the
// backend consumes instructions at a bounded rate (making FDIP's
// runahead meaningful), branch resolution latency depends on the data
// dependencies feeding the branch (making recovery timing realistic),
// and icache-miss-induced fetch starvation surfaces as retire slots
// lost to frontend stalls (paper Fig. 15).
package backend

import (
	"udpsim/internal/frontend"
	"udpsim/internal/isa"
	"udpsim/internal/memory"
)

// Config sizes the backend (Table II defaults assembled by sim).
type Config struct {
	Width       int // decode/retire width
	ROBSize     int
	RSSize      int
	ALUs        int
	LoadPorts   int
	StorePorts  int
	LoadBuffer  int
	StoreBuffer int
	// MulLatency is the long-op execute latency.
	MulLatency int
	// DepProb is the probability (in 1/256ths) that an instruction
	// depends on a recent older instruction's completion; the synthetic
	// stand-in for register dependences.
	DepProb256 int
	// DepWindow is how far back (in ROB slots) a dependence may reach.
	DepWindow int
	// BranchResolveExtra models the fetch-to-execute pipeline depth a
	// branch traverses before it can redirect the frontend; it widens
	// the wrong-path window after a misprediction.
	BranchResolveExtra int
}

// Stats aggregates backend events.
type Stats struct {
	Retired         uint64
	RetiredBranches uint64
	Cycles          uint64
	ROBFullCycles   uint64
	RSFullCycles    uint64
	Recoveries      uint64
	// EmptyROBCycles counts cycles with nothing to retire because the
	// ROB was empty — pure frontend starvation.
	EmptyROBCycles uint64
	// RetireStallCycles counts cycles where retirement made no progress
	// with a non-empty ROB.
	RetireStallCycles uint64
	Flushed           uint64 // instructions squashed by recoveries
	FlushedOnPath     uint64 // on-path instructions squashed (post-recovery refetches)
	WrongPathExecuted uint64 // wrong-path instructions that entered the ROB
	// MemRetries counts load/store issue attempts rejected by the memory
	// hierarchy under MSHR pressure (the instruction re-issues next
	// cycle).
	MemRetries uint64
}

// debugAliasCheck enables an O(ROB) aliasing assertion per decoded
// instruction (diagnostic only).
var debugAliasCheck = false

// SetDebugAliasCheck toggles the per-decode ROB aliasing assertion
// (diagnostic; costs O(ROBSize) per decoded instruction).
func SetDebugAliasCheck(on bool) { debugAliasCheck = on }

type entryState uint8

const (
	stateDispatched entryState = iota
	stateIssued
	stateDone
)

type robEntry struct {
	fi        *frontend.FrontInstr
	state     entryState
	readyAt   uint64 // execute completion cycle
	depOffset int    // dependence distance in ROB slots (0 = none)
	valid     bool
	// gen disambiguates slot reuse for the compact scheduling lists.
	gen uint32
}

// entryRef is a generation-checked reference into the ROB ring, letting
// the scheduler keep compact lists (dispatched-awaiting-issue, parked,
// issued-awaiting-completion) instead of scanning the whole ROB every
// cycle. A recovery trims the flushed entries off the young end of the
// age-ordered lists; references to flushed entries in inFlight go stale
// and are dropped lazily.
type entryRef struct {
	idx int
	gen uint32
}

// Backend is the out-of-order engine.
type Backend struct {
	cfg  Config
	fe   *frontend.Frontend
	hier *memory.Hierarchy

	rob   []robEntry
	head  int // oldest
	tail  int // next free
	count int

	// Compact scheduler worklists (see entryRef). pendingIssue and the
	// parked lists are in age order, inFlight in issue order.
	pendingIssue []entryRef
	inFlight     []entryRef
	// parkedLoads and parkedStores hold the loads and stores the L1D
	// turned away because its MSHR file was full, while L1DGeneration
	// still reads parkGen; the issue pass does not visit them (see
	// issue). newLoads and newStores collect one pass's fresh L1D
	// rejections, and spare is merge scratch.
	parkedLoads, parkedStores []entryRef
	parkGen                   uint64
	newLoads, newStores       []entryRef
	spare                     []entryRef
	// nextComplete is at or before the earliest readyAt in inFlight:
	// complete has nothing to do before that cycle.
	nextComplete uint64

	inFlightLoads  int
	inFlightStores int
	rsBusy         int // dispatched or issued but not yet done
	rng            uint64

	// RetireObserver, when non-nil, sees every retired instruction in
	// program order (tooling and invariant tests).
	RetireObserver func(*frontend.FrontInstr)

	Stats Stats
}

// New wires a backend to its frontend and memory hierarchy.
func New(cfg Config, fe *frontend.Frontend, hier *memory.Hierarchy) *Backend {
	if cfg.Width <= 0 {
		cfg.Width = 6
	}
	if cfg.ROBSize <= 0 {
		cfg.ROBSize = 352
	}
	if cfg.RSSize <= 0 {
		cfg.RSSize = 125
	}
	if cfg.ALUs <= 0 {
		cfg.ALUs = 4
	}
	if cfg.LoadPorts <= 0 {
		cfg.LoadPorts = 2
	}
	if cfg.StorePorts <= 0 {
		cfg.StorePorts = 2
	}
	if cfg.LoadBuffer <= 0 {
		cfg.LoadBuffer = 64
	}
	if cfg.StoreBuffer <= 0 {
		cfg.StoreBuffer = 64
	}
	if cfg.MulLatency <= 0 {
		cfg.MulLatency = 4
	}
	if cfg.DepWindow <= 0 {
		cfg.DepWindow = 8
	}
	if cfg.DepProb256 == 0 {
		cfg.DepProb256 = 56 // ~22% of instructions carry a modelled dependence
	}
	if cfg.BranchResolveExtra == 0 {
		cfg.BranchResolveExtra = 10
	}
	// The scheduler worklists are bounded by the live ROB window (plus
	// one decode group of stale refs awaiting compaction); preallocating
	// keeps the per-cycle loop allocation-free.
	list := func() []entryRef { return make([]entryRef, 0, cfg.ROBSize+cfg.Width) }
	return &Backend{
		cfg:          cfg,
		fe:           fe,
		hier:         hier,
		rob:          make([]robEntry, cfg.ROBSize),
		pendingIssue: list(),
		inFlight:     list(),
		parkedLoads:  list(),
		parkedStores: list(),
		newLoads:     list(),
		newStores:    list(),
		spare:        list(),
		rng:          0x9e3779b97f4a7c15,
	}
}

// ResetStats clears the backend's accumulated statistics (end of
// warmup) while preserving pipeline state. It implements the sim
// package's StatsResetter.
func (b *Backend) ResetStats() { b.Stats = Stats{} }

// ROBOccupancy returns the number of in-flight instructions.
func (b *Backend) ROBOccupancy() int { return b.count }

// Cycle advances the backend: retire, complete/resolve, issue, decode.
func (b *Backend) Cycle(cycle uint64) {
	b.Stats.Cycles++
	b.retire(cycle)
	b.complete(cycle)
	b.issue(cycle)
	b.decode(cycle)
}

// retire commits up to Width oldest completed instructions in order.
func (b *Backend) retire(cycle uint64) {
	if b.count == 0 {
		b.Stats.EmptyROBCycles++
		return
	}
	retired := 0
	for retired < b.cfg.Width && b.count > 0 {
		e := &b.rob[b.head]
		if e.state != stateDone || e.readyAt > cycle {
			break
		}
		fi := e.fi
		if fi.OnPath {
			b.Stats.Retired++
			if fi.Static.IsBranch() {
				b.Stats.RetiredBranches++
			}
			b.fe.OnRetire(fi, cycle)
			if b.RetireObserver != nil {
				b.RetireObserver(fi)
			}
			// Retirement is the instruction's last use: recycle it.
			b.fe.ReleaseInstr(fi)
		} else {
			// Wrong-path instructions normally get squashed by the
			// recovery flush before retiring; an off-path instruction
			// reaching the ROB head can only happen if its divergence
			// resolution is still in flight — hold it.
			break
		}
		b.popHead()
		retired++
	}
	if retired == 0 && b.count > 0 {
		b.Stats.RetireStallCycles++
	}
}

// complete marks executed instructions done, in issue order, and
// resolves diverging branches (execute-time recovery). Until the
// earliest in-flight readyAt nothing can be done, and the sweep is
// skipped.
func (b *Backend) complete(cycle uint64) {
	if cycle < b.nextComplete {
		return
	}
	next := ^uint64(0)
	keep := b.inFlight[:0]
	for n, ref := range b.inFlight {
		e := &b.rob[ref.idx]
		if !e.valid || e.gen != ref.gen || e.state != stateIssued {
			continue // flushed by a recovery
		}
		if e.readyAt > cycle {
			keep = append(keep, ref)
			if e.readyAt < next {
				next = e.readyAt
			}
			continue
		}
		e.state = stateDone
		b.rsBusy--
		if e.fi.Static.Class == isa.ClassLoad {
			b.inFlightLoads--
		}
		if e.fi.Static.Class == isa.ClassStore {
			b.inFlightStores--
		}
		if e.fi.Divergence != nil {
			// Misprediction resolved at execute: recover. Everything
			// younger is flushed; keep the rest of the worklist (stale
			// refs drop lazily), unswept, and resume next cycle:
			// nextComplete stays at or before this cycle, so the next
			// cycle sweeps.
			keep = append(keep, b.inFlight[n+1:]...)
			b.inFlight = keep
			b.recoverAt(ref.idx, cycle)
			return
		}
	}
	b.inFlight = keep
	b.nextComplete = next
}

// recoverAt flushes all ROB entries younger than idx and resteers the
// frontend.
func (b *Backend) recoverAt(idx int, cycle uint64) {
	b.Stats.Recoveries++
	fi := b.rob[idx].fi
	// Squash younger entries.
	j := (idx + 1) % len(b.rob)
	for b.tail != j {
		k := (b.tail - 1 + len(b.rob)) % len(b.rob)
		e := &b.rob[k]
		if e.valid {
			if e.state == stateIssued {
				if e.fi.Static.Class == isa.ClassLoad {
					b.inFlightLoads--
				}
				if e.fi.Static.Class == isa.ClassStore {
					b.inFlightStores--
				}
			}
			if e.state != stateDone {
				b.rsBusy--
			}
			b.Stats.Flushed++
			if e.fi.OnPath {
				b.Stats.FlushedOnPath++
			}
			e.valid = false
			// A squashed instruction has no further readers (the
			// age-ordered worklists are trimmed below, inFlight refs are
			// dropped by the valid/gen checks): recycle it.
			b.fe.ReleaseInstr(e.fi)
			e.fi = nil
			b.count--
		}
		b.tail = k
	}
	// The flushed entries are the young end of every age-ordered list.
	b.pendingIssue = b.trimFlushed(b.pendingIssue)
	b.parkedLoads = b.trimFlushed(b.parkedLoads)
	b.parkedStores = b.trimFlushed(b.parkedStores)
	b.fe.Recover(fi, cycle)
}

// trimFlushed drops the flushed entries off the young end of an
// age-ordered worklist.
func (b *Backend) trimFlushed(list []entryRef) []entryRef {
	for len(list) > 0 {
		ref := list[len(list)-1]
		if e := &b.rob[ref.idx]; e.valid && e.gen == ref.gen {
			break
		}
		list = list[:len(list)-1]
	}
	return list
}

// issue moves dispatched instructions to execution, in age order,
// respecting functional-unit ports, load/store buffers, and dependences.
//
// A load or store that DataRequest turns away at LevelL1 (the L1D MSHR
// file is full) is parked. Until L1DGeneration moves, every re-issue of
// it would be rejected again, identically, so the pass does not visit
// it: that file is full, and a full file's generation cannot move
// within a pass (only Tick's completions free an entry, and nothing can
// allocate into it). It would have been re-issued, and its rejection
// counted, exactly when the pass reached it with its ports and buffer
// still open. The pass consumes ports and buffer in age order and never
// gives them back, so those are the parked entries older than the load
// (store) whose issue closed them, or none if the buffer was full from
// the start. They are counted in one memory.Hierarchy call. Only an
// observer needs more: their backpressure events, emitted in age order
// among the fresh rejections'. Once the generation moves, the parked
// entries rejoin pendingIssue by age and take the full path again.
func (b *Backend) issue(cycle uint64) {
	if len(b.parkedLoads)+len(b.parkedStores) > 0 && b.parkGen != b.hier.L1DGeneration() {
		b.unpark()
	}
	alu := b.cfg.ALUs
	ld := b.cfg.LoadPorts
	st := b.cfg.StorePorts
	// ldCut and stCut are the age (see age) of the load and store whose
	// issue closed their ports or buffer this pass: parked entries
	// younger than it are not re-issued. len(b.rob) while open, 0 when
	// closed from the start.
	ldCut, stCut := len(b.rob), len(b.rob)
	if b.inFlightLoads >= b.cfg.LoadBuffer {
		ldCut = 0
	}
	if b.inFlightStores >= b.cfg.StoreBuffer {
		stCut = 0
	}
	observed := b.hier.Obs != nil && len(b.parkedLoads)+len(b.parkedStores) > 0
	var pl, ps int // the observer's position in the parked lists
	keep := b.pendingIssue[:0]
	for _, ref := range b.pendingIssue {
		idx := ref.idx
		e := &b.rob[idx]
		if observed {
			pl, ps = b.observeParked(b.age(idx), ldCut, stCut, pl, ps)
		}
		// Dependence: wait for the older instruction's completion. The
		// producer must still be in the ROB window behind this entry.
		start := cycle
		if e.depOffset > 0 && e.depOffset <= b.age(idx) {
			depIdx := idx - e.depOffset
			if depIdx < 0 {
				depIdx += len(b.rob)
			}
			dep := &b.rob[depIdx]
			if dep.valid {
				if dep.state == stateDispatched {
					keep = append(keep, ref) // producer not even issued
					continue
				}
				if dep.readyAt > start {
					start = dep.readyAt
				}
			}
		}
		var lat uint64
		switch e.fi.Static.Class {
		case isa.ClassLoad:
			if ld == 0 || b.inFlightLoads >= b.cfg.LoadBuffer {
				keep = append(keep, ref)
				continue
			}
			l, level, ok := b.hier.DataRequest(b.dataAddr(e.fi), start)
			if !ok {
				// MSHR pressure in the hierarchy: nothing was consumed,
				// the load re-issues next cycle or, rejected at the
				// L1D, once it is unparked.
				keep = b.rejected(ref, level, keep, &b.newLoads)
				continue
			}
			ld--
			b.inFlightLoads++
			if ld == 0 || b.inFlightLoads >= b.cfg.LoadBuffer {
				ldCut = b.age(idx)
			}
			lat = l
		case isa.ClassStore:
			if st == 0 || b.inFlightStores >= b.cfg.StoreBuffer {
				keep = append(keep, ref)
				continue
			}
			// Stores retire through the store buffer; model a short
			// pipeline latency (the dcache write happens post-commit),
			// but the write-allocate fill still occupies MSHRs and
			// bandwidth like any other request.
			if _, level, ok := b.hier.DataRequest(b.dataAddr(e.fi), start); !ok {
				keep = b.rejected(ref, level, keep, &b.newStores)
				continue
			}
			st--
			b.inFlightStores++
			if st == 0 || b.inFlightStores >= b.cfg.StoreBuffer {
				stCut = b.age(idx)
			}
			lat = 1
		case isa.ClassMul:
			if alu == 0 {
				keep = append(keep, ref)
				continue
			}
			alu--
			lat = uint64(b.cfg.MulLatency)
		default: // ALU, branches, nops
			if alu == 0 {
				keep = append(keep, ref)
				continue
			}
			alu--
			lat = 1
			if e.fi.Static.IsBranch() {
				// Resolution happens at the end of the execute stage,
				// a full pipeline traversal after decode.
				lat += uint64(b.cfg.BranchResolveExtra)
			}
		}
		e.state = stateIssued
		e.readyAt = start + lat
		if e.readyAt < b.nextComplete {
			b.nextComplete = e.readyAt
		}
		b.inFlight = append(b.inFlight, ref)
	}
	b.pendingIssue = keep
	if observed {
		b.observeParked(len(b.rob), ldCut, stCut, pl, ps)
	}
	if n := b.olderThan(b.parkedLoads, ldCut) + b.olderThan(b.parkedStores, stCut); n > 0 {
		b.Stats.MemRetries += n
		b.hier.RepeatDataRejects(n)
	}
	if len(b.newLoads)+len(b.newStores) > 0 {
		b.parkedLoads = b.mergeByAge(b.parkedLoads, b.newLoads)
		b.parkedStores = b.mergeByAge(b.parkedStores, b.newStores)
		b.newLoads, b.newStores = b.newLoads[:0], b.newStores[:0]
		b.parkGen = b.hier.L1DGeneration()
	}
}

// rejected counts the retry of a load or store DataRequest turned away
// at level. One the L1D's full MSHR file rejected joins park, this
// pass's fresh rejections of its class; any other stays in keep.
func (b *Backend) rejected(ref entryRef, level memory.Level, keep []entryRef, park *[]entryRef) []entryRef {
	b.Stats.MemRetries++
	if level == memory.LevelL1 {
		*park = append(*park, ref)
		return keep
	}
	// Rejections further down (L2, LLC) depend on state the L1D
	// generation does not cover: re-issue through the full path.
	return append(keep, ref)
}

// observeParked emits, in age order, the backpressure events of the
// parked loads and stores from positions pl and ps on that are older
// than age, for those older than their class's cut (the ones counted
// as re-issued), and returns the new positions.
func (b *Backend) observeParked(age, ldCut, stCut, pl, ps int) (int, int) {
	for {
		la, sa := len(b.rob), len(b.rob)
		if pl < len(b.parkedLoads) {
			la = b.age(b.parkedLoads[pl].idx)
		}
		if ps < len(b.parkedStores) {
			sa = b.age(b.parkedStores[ps].idx)
		}
		switch {
		case la < sa && la < age:
			if la < ldCut {
				b.hier.RepeatDataRejectEvent(b.dataAddr(b.rob[b.parkedLoads[pl].idx].fi))
			}
			pl++
		case sa < la && sa < age:
			if sa < stCut {
				b.hier.RepeatDataRejectEvent(b.dataAddr(b.rob[b.parkedStores[ps].idx].fi))
			}
			ps++
		default:
			return pl, ps
		}
	}
}

// olderThan counts the entries of an age-ordered list older than cut.
func (b *Backend) olderThan(list []entryRef, cut int) uint64 {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.age(list[mid].idx) < cut {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}

// unpark returns the parked entries to pendingIssue, by age.
func (b *Backend) unpark() {
	b.pendingIssue = b.mergeByAge(b.pendingIssue, b.parkedLoads)
	b.pendingIssue = b.mergeByAge(b.pendingIssue, b.parkedStores)
	b.parkedLoads, b.parkedStores = b.parkedLoads[:0], b.parkedStores[:0]
}

// mergeByAge returns the age-ordered merge of two age-ordered lists.
// When extra is all younger, it is appended to list; otherwise the
// merge is built in the spare buffer and list's buffer becomes the new
// spare.
func (b *Backend) mergeByAge(list, extra []entryRef) []entryRef {
	if len(extra) == 0 || len(list) == 0 || b.age(list[len(list)-1].idx) < b.age(extra[0].idx) {
		return append(list, extra...)
	}
	merged, x, y := b.spare[:0], list, extra
	for len(x) > 0 && len(y) > 0 {
		if b.age(x[0].idx) < b.age(y[0].idx) {
			merged, x = append(merged, x[0]), x[1:]
		} else {
			merged, y = append(merged, y[0]), y[1:]
		}
	}
	merged = append(append(merged, x...), y...)
	b.spare = list[:0]
	return merged
}

// age is the distance of ROB slot idx from the head: among live
// entries, smaller is older.
func (b *Backend) age(idx int) int {
	d := idx - b.head
	if d < 0 {
		d += len(b.rob)
	}
	return d
}

// dataAddr picks the memory address for a load/store: the resolved
// oracle address on the correct path, the static representative address
// on the wrong path (the same replay approximation Scarab's trace mode
// makes, as the paper notes in Section III-A).
func (b *Backend) dataAddr(fi *frontend.FrontInstr) isa.Addr {
	if fi.OnPath {
		return fi.Oracle.DataAddr
	}
	return fi.Static.DataAddr
}

// decode pulls instructions from the frontend's decode queue into the
// ROB, invoking post-fetch correction per instruction.
func (b *Backend) decode(cycle uint64) {
	for n := 0; n < b.cfg.Width; n++ {
		if b.count >= len(b.rob) {
			b.Stats.ROBFullCycles++
			return
		}
		if b.rsBusy >= b.cfg.RSSize {
			b.Stats.RSFullCycles++
			return
		}
		fi := b.fe.PopDecode()
		if fi == nil {
			return
		}
		if debugAliasCheck {
			for i := range b.rob {
				if b.rob[i].valid && b.rob[i].fi == fi {
					panic("backend: decoded instruction aliases a live ROB entry (double pool release)")
				}
			}
		}
		if !fi.OnPath {
			b.Stats.WrongPathExecuted++
		}
		resteered := b.fe.OnDecode(fi, cycle)
		e := &b.rob[b.tail]
		gen := e.gen + 1
		*e = robEntry{fi: fi, state: stateDispatched, valid: true, gen: gen}
		b.pendingIssue = append(b.pendingIssue, entryRef{idx: b.tail, gen: gen})
		// Synthetic dependence assignment.
		b.rng = b.rng*6364136223846793005 + 1442695040888963407
		if int(b.rng>>56)&0xff < b.cfg.DepProb256 {
			e.depOffset = 1 + int((b.rng>>32)%uint64(b.cfg.DepWindow))
		}
		b.tail = (b.tail + 1) % len(b.rob)
		b.count++
		b.rsBusy++
		if resteered {
			// Everything younger was flushed in the frontend; stop
			// decoding this cycle.
			return
		}
	}
}

func (b *Backend) popHead() {
	// Preserve the slot's generation so stale worklist references can
	// never alias a future occupant.
	gen := b.rob[b.head].gen
	b.rob[b.head] = robEntry{gen: gen}
	b.head = (b.head + 1) % len(b.rob)
	b.count--
}
