//! # VEGETA: sparse/dense GEMM tile acceleration for CPUs
//!
//! A from-scratch Rust reproduction of *VEGETA: Vertically-Integrated
//! Extensions for Sparse/Dense GEMM Tile Acceleration on CPUs* (HPCA 2023).
//!
//! VEGETA extends a CPU's AMX-class matrix engine with flexible `N:M`
//! structured sparsity: compressed tile registers plus metadata registers,
//! `TILE_SPMM` instructions, sparsity-aware systolic processing elements,
//! WL/FF/FS/DR pipelining with output forwarding, and a lossless software
//! transform that turns *unstructured* sparsity into row-wise `N:M`.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`num`] | BF16/FP32 mixed precision, matrices |
//! | [`sparse`] | `N:M` formats, compression, covers/transforms, pruning |
//! | [`isa`] | tile/metadata registers, Table II instructions, executor |
//! | [`engine`] | Table III design points, dataflow + pipeline + cost models |
//! | [`sim`] | trace-driven out-of-order CPU model |
//! | [`kernels`] | tiled GEMM/SPMM/vector kernels, im2col, [`kernels::KernelSpec`] |
//! | [`workloads`] | Table IV layers and weight generators |
//! | [`model`] | roofline (Fig. 3) and granularity (Fig. 15) models |
//! | [`session`] | the experiment API: [`session::Cell`], [`session::Session`] + [`session::Sweep`] |
//! | [`report`] | structured run/sweep reports with JSON + CSV output |
//! | [`json`] | the dependency-free JSON value behind the reports |
//!
//! Two crates sit on top of this facade rather than inside it: the
//! `vegeta-serve` crate serves batched inference requests over a fleet of
//! simulated workers (admission control, request batching, virtual-clock
//! latency accounting), and `vegeta-bench` holds the figure/table binaries.
//!
//! # Quickstart
//!
//! Experiments are [`session::Cell`]s — a layer or shape, a weight
//! operand, optionally a core count — run on a [`session::Session`] (one
//! engine) or built into a [`session::Sweep`] (an engine × layer × sparsity
//! grid, run on a worker pool with trace memoization):
//!
//! ```
//! use vegeta::prelude::*;
//!
//! // How fast does VEGETA-S-16-2 run BERT-L2 with 2:4-sparse weights?
//! // (The doctest scales the layer down 8x; `Fidelity::Full` is full size.)
//! let layer = table4()[7];
//! let session = Session::new(EngineConfig::vegeta_s(16).unwrap());
//! let report = session.run(&Cell::layer(&layer, Fidelity::Quick(8), NmRatio::S2_4));
//! assert!(report.cycles > 0);
//! println!("{} on {}: {}", report.workload, report.engine, report.to_json());
//!
//! // The same question across a grid: engines x sparsities, in parallel,
//! // building each distinct kernel trace once.
//! let grid = Sweep::new()
//!     .with_engines([EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()])
//!     .with_layer(layer)
//!     .with_sparsities([NmRatio::D4_4, NmRatio::S2_4])
//!     .with_scale(8)
//!     .run();
//! let speedup = grid
//!     .geomean_speedup("RASA-DM (VEGETA-D-1-2)", "VEGETA-S-16-2", "2:4")
//!     .unwrap();
//! assert!(speedup > 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use vegeta_engine as engine;
pub use vegeta_isa as isa;
pub use vegeta_kernels as kernels;
pub use vegeta_lint as lint;
pub use vegeta_model as model;
pub use vegeta_num as num;
pub use vegeta_sim as sim;
pub use vegeta_sparse as sparse;
pub use vegeta_workloads as workloads;

pub mod json;
pub mod report;
pub mod session;

/// Seeds a small fast RNG (re-exported convenience for examples and docs).
pub fn rand_seed(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(seed)
}

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use crate::rand_seed;
    pub use crate::report::{geomean, NetworkReport, RunReport, SweepReport};
    pub use crate::session::{
        figure13_engines, figure13_sparsities, quick_factor, Cell, Fidelity, Operand, Session,
        Sweep,
    };
    pub use vegeta_engine::{CostModel, EngineConfig, EngineTimer};
    pub use vegeta_isa::{Executor, Inst, Memory, TReg, UReg, VReg};
    pub use vegeta_kernels::{
        EngineKernelExt, GemmShape, Kernel, KernelOptions, KernelSpec, ShardPlan, ShardSet,
        SparseMode, TraceCache,
    };
    pub use vegeta_model::{GranularityHw, GranularityModel};
    pub use vegeta_num::{Bf16, Matrix};
    pub use vegeta_sim::{
        CoreSim, ExecMode, MultiCoreConfig, MultiCoreResult, MultiCoreSim, SchedulerPolicy,
        SharedL2Stats, SimConfig, SimResult,
    };
    pub use vegeta_sparse::{
        CompressedTile, CsrTile, DenseTile, FormatSpec, MregImage, NmRatio, RowWiseTile,
        TileFormat, TileView, TregImage,
    };
    pub use vegeta_workloads::{table4, Layer, WeightSparsity};
}
