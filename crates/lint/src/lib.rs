//! Static verification of VEGETA kernel instruction streams and shard
//! plans — without executing anything.
//!
//! VEGETA's correctness story rests on instruction streams that are
//! *generated* (per kernel family), *sharded* (`ShardPlan` rectangles and
//! K-depth slices), and *replayed at scale*. A latent stream bug — a tile
//! register read before its load, an address plan that walks outside its
//! declared working set, a shard plan that double-covers a block — silently
//! corrupts results or cycle counts. This crate proves stream
//! well-formedness statically, before any simulation runs, with four
//! passes:
//!
//! 1. **Register dataflow** ([`dataflow`]) — def-before-use, clobber, and
//!    unconsumed-write analysis over tile registers, accumulator groups,
//!    and the two metadata sub-slots (`TILE_LOAD_M` positions vs
//!    `TILE_LOAD_RP` row patterns), including the post-barrier K-split
//!    reduction's vector sequence. Codes `V-DF01..05`.
//! 2. **Address-plan bounds & aliasing** ([`bounds`]) — every memory
//!    access must stay inside the kernel's declared
//!    [`Footprint`](vegeta_isa::Footprint) regions, stores must hit
//!    writable regions, tile-engine accesses must be 64 B aligned; and
//!    concurrent shards' tile-store write sets must be disjoint. Codes
//!    `V-AB01..03` (+ `V-SP04` at set level).
//! 3. **Shard-plan coverage** ([`coverage`]) — a `ShardPlan`'s rectangles
//!    and K-slices must tile the M×N×K unit grid exactly once, and every
//!    K-split must have a matching reduction that reads exactly the
//!    partial lines the shards wrote. Codes `V-SP01..03`.
//! 4. **Stream-length accounting** ([`verify`]) — the declared block/stream
//!    op counts (which LPT scheduling trusts for load balancing) must match
//!    the statically recomputed emission lengths. Codes `V-LN01..02`.
//!
//! The top-level entry points are [`verify_spec`] (one kernel stream) and
//! [`verify_shard_set`] / [`verify_shard_set_with`] (`ShardPlan` shard
//! sets, with the reduction when K splits). The
//! [`mutation`] module is the harness that proves the verifier *rejects*:
//! it seeds one defect per operator into real generated artifacts and
//! checks the expected diagnostic fires.
//!
//! # Example
//!
//! ```
//! use vegeta_kernels::{GemmShape, KernelOptions, KernelSpec, SparseMode};
//!
//! let spec = KernelSpec::Tiled {
//!     mode: SparseMode::Nm2of4,
//!     opts: KernelOptions::default(),
//! };
//! let shape = GemmShape::new(96, 64, 256);
//! assert!(vegeta_lint::verify_spec(&spec, shape).is_clean());
//! assert!(vegeta_lint::verify_shard_set(&spec, shape, 16).is_clean());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod coverage;
pub mod dataflow;
pub mod diag;
pub mod mutation;
pub mod verify;

pub use bounds::{check_bounds, AccessSummary, BoundsPass};
pub use coverage::{check_coverage, CoverBox};
pub use dataflow::{check_dataflow, DataflowConfig, DataflowPass, REDUCTION_ONES_VREG};
pub use diag::{DiagCode, Diagnostic, Report};
pub use mutation::{run_corpus, Mutation, OpsEmitter};
pub use verify::{
    check_set, verify_blocks, verify_ops, verify_shard_set, verify_shard_set_with, verify_spec,
    LintConfig, MAX_DIAGS_PER_STREAM,
};
