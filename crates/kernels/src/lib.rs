//! GEMM/SPMM kernels emitting VEGETA instruction traces (§VI-A).
//!
//! The paper wrote GEMM/SPMM kernels with VEGETA C++ intrinsics, traced them
//! with a Pintool, and replayed the traces on MacSim. This crate plays the
//! kernel-plus-intrinsics role: builders produce dynamic [`Trace`]s (and,
//! when operand data is supplied, fully initialized memory images that the
//! functional executor can run for bit-exact verification).
//!
//! * [`tiled`] — dense `TILE_GEMM` and structured `TILE_SPMM_U`/`_V`
//!   kernels: the optimized register-blocked versions used in Fig. 13 and
//!   the naive Listing-1 kernel.
//! * [`rowwise`] — `TILE_SPMM_R` kernels for unstructured sparsity via the
//!   row-wise cover transform, with and without DMA row reordering.
//! * [`vector`] — the register-blocked vector (AVX-512-class) GEMM baseline
//!   behind Figs. 3 and 4.
//! * [`shapes`] — GEMM shapes and im2col lowering for the Table IV
//!   convolutional layers.
//! * [`kernel`] — the hashable [`KernelSpec`] enum unifying every
//!   builder (the one way to a kernel's trace), the memoizing
//!   [`TraceCache`] (keyed on shape × storage format × kernel), and
//!   [`EngineKernelExt`] (kernel selection per engine).
//!
//! Every kernel declares the storage format its `A` operand uses via
//! [`KernelSpec::format`] (a `vegeta_sparse::FormatSpec`), and the program
//! builders lower operands into register images with the storage layer's
//! `TileFormat::pack_into` — the same bytes the ISA's tile loads then move.
//!
//! [`Trace`]: vegeta_isa::trace::Trace
//!
//! # Example
//!
//! ```
//! use vegeta_kernels::{GemmShape, KernelSpec, SparseMode};
//!
//! // The BERT-L2 layer at 2:4 sparsity, as a timing trace.
//! let trace = KernelSpec::tiled(SparseMode::Nm2of4).build(GemmShape::new(512, 512, 768));
//! assert!(trace.mix().tile_compute > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod kernel;
pub mod rowwise;
pub mod shapes;
pub mod stream;
pub mod tiled;
pub mod vector;

pub use error::KernelError;
pub use kernel::{EngineKernelExt, KernelSpec, TraceCache, TraceCacheStats, TraceSummary};
pub use rowwise::{build_rowwise_program, RowWiseProgram};
pub use shapes::{direct_conv, im2col, ConvShape, GemmShape};
pub use stream::{
    KernelEmitter, KernelStream, ShardEmitter, ShardKind, ShardPlan, ShardSet, ShardStream,
};
pub use tiled::{build_program, KernelOptions, KernelProgram, SparseMode};
pub use vector::MACS_PER_VEC_FMA;
