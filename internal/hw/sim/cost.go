package sim

// CostModel holds every latency constant (virtual nanoseconds) charged by the
// hardware models. The defaults are calibrated from Yang et al., "An
// Empirical Guide to the Behavior and Use of Scalable Persistent Memory"
// (FAST'20), the Intel eADR technical note, and the absolute numbers the
// paper itself reports in Section II. Experiments that want a different
// machine swap in a different model; there is deliberately exactly one place
// where these constants live.
type CostModel struct {
	// CPU cache (the simulated persistent LLC).
	CacheHitRead   int64 // load that hits the LLC
	CacheHitWrite  int64 // store that hits the LLC
	CacheMissExtra int64 // extra line-fill cost on top of the media read
	CacheLineSize  int64 // bytes per cacheline

	// DRAM (native Go structures; charged per logical access).
	DRAMAccess int64 // one DRAM-resident node/field access

	// Optane PMem media and XPBuffer.
	PMemReadSeq   int64 // sequential 256 B media read
	PMemReadRand  int64 // random 256 B media read
	XPBufferHit   int64 // 64 B line arrival that combines into a buffered XPLine
	XPBufferMiss  int64 // line arrival that allocates a fresh XPLine slot
	RMWPenalty    int64 // extra cost when evicting a partially-filled XPLine
	XPLineSize    int64 // bytes per XPLine (Optane media access granularity)
	DIMMs         int64 // interleaved DIMM count (sizes the default XPBuffer window)
	InterleaveKiB int64 // interleave stripe size in KiB (4 KiB on Optane)
	XPBufferLines int64 // write-combining window, in XPLines (0 = 64 per DIMM)

	// Instructions.
	CLFlush  int64 // one clflush/clwb of a line, excluding the media cost
	Fence    int64 // sfence/mfence
	NTStore  int64 // one 64 B non-temporal store (bypasses cache)
	AtomicOp int64 // one CAS / fetch-add on a shared word

	// Software costs.
	SyscallWrite       int64 // per-write syscall + kernel I/O stack share (block path)
	ClientOp           int64 // benchmark-client work per op (key gen, dispatch, accounting)
	FlushFixed         int64 // fixed dispatch/metadata cost per background flush job
	FlushBytePerKB     int64 // flush-thread work per KiB copied (allocation, packing, verify)
	LockHandoff        int64 // uncontended mutex acquire/release pair
	LockCoherence      int64 // extra per waiting thread when contended
	ContentionPerMille int64 // critical-section slowdown per waiter (permille of hold time)
	SkiplistVisit      int64 // per-node bookkeeping on top of the memory access
	BranchOp           int64 // generic small CPU work quantum
}

// DefaultCosts returns the calibrated cost model described in DESIGN.md §4.
func DefaultCosts() *CostModel {
	return &CostModel{
		CacheHitRead:   20,
		CacheHitWrite:  8,
		CacheMissExtra: 25,
		CacheLineSize:  64,

		DRAMAccess: 80,

		PMemReadSeq:   170,
		PMemReadRand:  320,
		XPBufferHit:   90,
		XPBufferMiss:  110,
		RMWPenalty:    430,
		XPLineSize:    256,
		DIMMs:         4,
		InterleaveKiB: 4,
		XPBufferLines: 1024,

		CLFlush:  220,
		Fence:    30,
		NTStore:  60,
		AtomicOp: 15,

		SyscallWrite:       700,
		ClientOp:           200,
		FlushFixed:         250_000,
		FlushBytePerKB:     3_500,
		LockHandoff:        25,
		LockCoherence:      60,
		ContentionPerMille: 600,
		SkiplistVisit:      6,
		BranchOp:           2,
	}
}
