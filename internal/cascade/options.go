// Package cascade implements cascaded execution, the contribution of
// Anderson, Nguyen & Zahorjan (IPPS 1999): a sequential loop is executed
// as a cascade of contiguous iteration chunks across the processors of a
// shared-memory multiprocessor. Exactly one processor executes loop
// iterations at any time; the others run helper phases that optimize
// their memory state for their own upcoming chunks, either by prefetching
// the chunk's operands (HelperPrefetch) or by restructuring its read-only
// data into a private sequential buffer (HelperRestructure).
//
// The package provides:
//
//   - RunSequential: the single-processor baseline.
//   - Run: cascaded execution on a finite-processor machine, with a
//     cycle-accurate helper/execute timeline including control-transfer
//     costs and the jump-out-of-helper-on-signal refinement (§3.3).
//   - RunUnbounded: the paper's §3.4 methodology for projecting
//     unbounded-processor performance — helpers always run to completion
//     and only execution phases plus transfers are charged.
package cascade

import (
	"fmt"

	"repro/internal/memsim"
)

// Helper selects what the idle processors do.
type Helper int

const (
	// HelperPrefetch runs a shadow version of the loop body that loads
	// the operands of the processor's next chunk into its caches.
	HelperPrefetch Helper = iota
	// HelperRestructure streams the chunk's read-only operands (after the
	// loop's read-only precomputation, if any) into a private sequential
	// buffer in dynamic reference order, and shadow-loads the rest.
	HelperRestructure
)

// String implements fmt.Stringer.
func (h Helper) String() string {
	switch h {
	case HelperPrefetch:
		return "prefetched"
	case HelperRestructure:
		return "restructured"
	default:
		return fmt.Sprintf("Helper(%d)", int(h))
	}
}

// Options configures a cascaded run.
type Options struct {
	// Helper is the helper-phase strategy.
	Helper Helper
	// ChunkBytes is the per-chunk data budget; the chunker divides it by
	// the loop's bytes-per-iteration estimate (§2.2). 64KB performed best
	// on both paper machines.
	ChunkBytes int
	// JumpOut makes a processor abandon its helper phase the moment it is
	// signaled to execute (§3.3's refinement; the paper's reported results
	// include it). When false, execution waits for helper completion.
	JumpOut bool
	// Precompute makes the restructuring helper apply the loop's
	// read-only computation (Pre) and store its results instead of the
	// raw operand values — §2.1's optional aggressive helper use. Off by
	// default, matching the paper's main results.
	Precompute bool
	// Space is the address space in which per-processor sequential
	// buffers are allocated. Required for HelperRestructure.
	Space *memsim.Space
	// PriorParallel, when true, pre-distributes the loop's data across
	// all processors' caches (dirty) before the run, modelling the
	// parallel section that precedes an unparallelized loop.
	PriorParallel bool
	// KeepState skips the cache reset (and any PriorParallel
	// distribution) at the start of the run, so the machine's current
	// cache contents carry in — used to measure steady-state calls of a
	// repeatedly-invoked subroutine, like the paper's 12th-of-5000
	// PARMVR call. Statistics are still reset.
	KeepState bool
}

// DefaultChunkBytes is the chunk size the paper found best on both
// machines (Figure 6).
const DefaultChunkBytes = 64 * 1024

// Phase-timer names under which the run drivers account simulated time in
// the machine's metrics registry (see internal/metrics.PhaseTimer):
// snapshot keys are "cascade.p<i>.<phase>" and "cascade.total.<phase>".
const (
	// TimerName is the registry name of the cascade phase timer.
	TimerName = "cascade"
	// PhaseHelper is cycles spent in helper phases (hidden time, except
	// through PhaseWait).
	PhaseHelper = "helper"
	// PhaseExec is cycles spent in execution phases (the critical path).
	PhaseExec = "exec"
	// PhaseTransfer is control-transfer overhead, charged to the receiving
	// processor.
	PhaseTransfer = "transfer"
	// PhaseWait is critical-path stall waiting for helper completion; it is
	// zero whenever Options.JumpOut is enabled.
	PhaseWait = "wait"
)

// DefaultOptions returns the configuration used for the paper's headline
// results: 64KB chunks, jump-out enabled, prior parallel section modelled.
func DefaultOptions(h Helper, space *memsim.Space) Options {
	return Options{
		Helper:        h,
		ChunkBytes:    DefaultChunkBytes,
		JumpOut:       true,
		Space:         space,
		PriorParallel: true,
	}
}

// Option adjusts one field of an Options value. Options are built with
// NewOptions, which starts from the paper's headline configuration and
// validates the result:
//
//	opts, err := cascade.NewOptions(
//		cascade.WithHelper(cascade.HelperRestructure),
//		cascade.WithSpace(space),
//	)
//
// The Options struct itself remains exported for callers that prefer
// literal construction; such values are validated by the run drivers.
type Option func(*Options)

// WithHelper selects the helper-phase strategy.
func WithHelper(h Helper) Option { return func(o *Options) { o.Helper = h } }

// WithChunkBytes sets the per-chunk data budget (§2.2).
func WithChunkBytes(n int) Option { return func(o *Options) { o.ChunkBytes = n } }

// WithJumpOut toggles §3.3's jump-out-of-helper-on-signal refinement.
func WithJumpOut(on bool) Option { return func(o *Options) { o.JumpOut = on } }

// WithPrecompute makes the restructuring helper apply the loop's
// read-only computation and buffer its results (§2.1).
func WithPrecompute(on bool) Option { return func(o *Options) { o.Precompute = on } }

// WithSpace sets the address space for per-processor sequential buffers
// (required by HelperRestructure).
func WithSpace(s *memsim.Space) Option { return func(o *Options) { o.Space = s } }

// WithPriorParallel toggles modelling of the parallel section that
// precedes the unparallelized loop (data distributed dirty across caches).
func WithPriorParallel(on bool) Option { return func(o *Options) { o.PriorParallel = on } }

// WithKeepState preserves machine cache state across the run, for
// steady-state measurements of repeatedly-invoked loops.
func WithKeepState(on bool) Option { return func(o *Options) { o.KeepState = on } }

// NewOptions builds a validated Options value: the paper's headline
// configuration (prefetch helper, 64KB chunks, jump-out, prior parallel
// section) with the given adjustments applied in order.
func NewOptions(fns ...Option) (Options, error) {
	o := DefaultOptions(HelperPrefetch, nil)
	for _, fn := range fns {
		fn(&o)
	}
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// Validate checks option consistency: a positive chunk budget, a known
// helper, and a buffer space whenever the restructuring helper needs one.
func (o Options) Validate() error {
	if o.ChunkBytes <= 0 {
		return fmt.Errorf("cascade: ChunkBytes = %d", o.ChunkBytes)
	}
	if o.Helper != HelperPrefetch && o.Helper != HelperRestructure {
		return fmt.Errorf("cascade: unknown helper %d", int(o.Helper))
	}
	if o.Helper == HelperRestructure && o.Space == nil {
		return fmt.Errorf("cascade: HelperRestructure requires Options.Space for sequential buffers")
	}
	return nil
}
