//! The request/response model: what clients submit and what they get back.

use vegeta::prelude::*;

/// What a request asks the fleet to execute. Hashable, so a server admits
/// each distinct work item once however many requests carry it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Work {
    /// A Table IV layer at a weight sparsity; the engine picks the kernel
    /// it would execute for those weights (always well-formed).
    Layer {
        /// The layer to run.
        layer: Layer,
        /// Weight sparsity the layer's `A` operand is pruned to.
        weights: NmRatio,
    },
    /// A raw `(shape, kernel spec)` pair, as a compiler or an external
    /// client would submit it. Unlike [`Work::Layer`] this is *untrusted*:
    /// admission structurally validates it and runs the
    /// [`vegeta-lint`](vegeta::lint) preflight before it may reach a worker.
    Spec {
        /// GEMM dimensions.
        shape: GemmShape,
        /// Kernel to execute.
        spec: KernelSpec,
    },
}

impl Work {
    /// Resolves this work item to the batch key it executes as, or the
    /// structured admission error that rejects it. `engine`/`opts` select
    /// the kernel for layer work; `fidelity` scales layer shapes exactly
    /// as [`Session`](vegeta::session::Session) runs do.
    pub fn resolve(
        &self,
        engine: &EngineConfig,
        opts: KernelOptions,
        fidelity: Fidelity,
    ) -> Result<BatchKey, RequestError> {
        let key = match self {
            Work::Layer { layer, weights } => BatchKey {
                shape: fidelity.shape_of(layer),
                spec: engine.kernel_spec(*weights, opts),
            },
            Work::Spec { shape, spec } => BatchKey {
                shape: *shape,
                spec: spec.clone(),
            },
        };
        key.validate()?;
        Ok(key)
    }
}

/// The coalescing identity of a request: requests with equal keys execute
/// the same trace, so one simulation (and one
/// [`TraceCache`](vegeta::kernels::TraceCache) entry) serves all of them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// GEMM dimensions.
    pub shape: GemmShape,
    /// Kernel executed.
    pub spec: KernelSpec,
}

impl BatchKey {
    /// Structural validation: the checks that must hold before the spec is
    /// even *lintable* (the preflight assumes a self-consistent spec).
    pub(crate) fn validate(&self) -> Result<(), RequestError> {
        let GemmShape { m, n, k } = self.shape;
        if m == 0 || n == 0 || k == 0 {
            return Err(RequestError::Malformed(format!(
                "degenerate shape {m}x{n}x{k}: all dimensions must be nonzero"
            )));
        }
        if let KernelSpec::RowWise { row_ratios } = &self.spec {
            if row_ratios.len() != m {
                return Err(RequestError::Malformed(format!(
                    "row-wise spec carries {} row covers for {m} rows",
                    row_ratios.len()
                )));
            }
        }
        if let KernelSpec::Tiled { opts, .. } = &self.spec {
            if opts.unroll == 0 || opts.unroll > 3 {
                return Err(RequestError::Malformed(format!(
                    "tiled kernel unroll {} outside the supported 1..=3",
                    opts.unroll
                )));
            }
        }
        Ok(())
    }
}

/// Why a request was turned away at admission, as a structured error the
/// client gets back instead of a worker panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The spec is structurally inconsistent (caught before linting).
    Malformed(String),
    /// The spec failed the static [`vegeta-lint`](vegeta::lint) preflight.
    Preflight(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Malformed(why) => write!(f, "malformed request: {why}"),
            RequestError::Preflight(why) => write!(f, "preflight rejected request: {why}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// One inference request submitted to the service.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-assigned id, echoed in the [`Response`].
    pub id: u64,
    /// What to execute.
    pub work: Work,
    /// Arrival time on the virtual clock, in microseconds.
    pub arrival_us: u64,
    /// Optional latency deadline relative to arrival, in microseconds;
    /// completions past it are counted as deadline misses (reported, not
    /// cancelled).
    pub deadline_us: Option<u64>,
}

/// How a request left the system.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served by a worker.
    Completed {
        /// Virtual time service started.
        start_us: u64,
        /// Virtual time the batch finished.
        finish_us: u64,
        /// Size of the batch it rode in.
        batch_size: usize,
        /// Which worker served it.
        worker: usize,
        /// Whether `finish - arrival` exceeded the request's deadline.
        missed_deadline: bool,
    },
    /// Dropped at admission: the bounded queue was full.
    Shed {
        /// The configured depth the queue was at.
        queue_depth: usize,
    },
    /// Turned away at admission with a structured error.
    Rejected(RequestError),
}

/// The service's reply to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id.
    pub id: u64,
    /// When the request arrived (echoed for latency accounting).
    pub arrival_us: u64,
    /// What happened to it.
    pub outcome: Outcome,
}

impl Response {
    /// End-to-end latency in microseconds, for completed requests.
    pub fn latency_us(&self) -> Option<u64> {
        match &self.outcome {
            Outcome::Completed { finish_us, .. } => Some(finish_us - self.arrival_us),
            Outcome::Shed { .. } | Outcome::Rejected(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_work_resolves_to_engine_kernel() {
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let layer = table4()[7];
        let key = Work::Layer {
            layer,
            weights: NmRatio::S2_4,
        }
        .resolve(&engine, KernelOptions::default(), Fidelity::Quick(8))
        .unwrap();
        assert_eq!(key.shape, layer.scaled_shape(8));
        assert_eq!(
            key.spec,
            engine.kernel_spec(NmRatio::S2_4, KernelOptions::default())
        );
    }

    #[test]
    fn degenerate_shape_is_malformed() {
        let engine = EngineConfig::rasa_dm();
        let work = Work::Spec {
            shape: GemmShape::new(0, 16, 128),
            spec: KernelSpec::Vector,
        };
        let err = work
            .resolve(&engine, KernelOptions::default(), Fidelity::Full)
            .unwrap_err();
        assert!(matches!(err, RequestError::Malformed(_)), "{err}");
    }

    #[test]
    fn rowwise_cover_count_must_match_rows() {
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let work = Work::Spec {
            shape: GemmShape::new(32, 16, 128),
            spec: KernelSpec::RowWise {
                row_ratios: vec![NmRatio::S2_4; 31],
            },
        };
        let err = work
            .resolve(&engine, KernelOptions::default(), Fidelity::Full)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("31"), "{msg}");
        assert!(msg.contains("32"), "{msg}");
    }

    #[test]
    fn unroll_out_of_range_is_malformed() {
        let engine = EngineConfig::rasa_dm();
        let work = Work::Spec {
            shape: GemmShape::new(16, 16, 128),
            spec: KernelSpec::Tiled {
                mode: SparseMode::Dense,
                opts: KernelOptions {
                    unroll: 7,
                    loop_overhead: true,
                },
            },
        };
        assert!(work
            .resolve(&engine, KernelOptions::default(), Fidelity::Full)
            .is_err());
    }

    #[test]
    fn latency_is_finish_minus_arrival() {
        let r = Response {
            id: 3,
            arrival_us: 100,
            outcome: Outcome::Completed {
                start_us: 150,
                finish_us: 400,
                batch_size: 2,
                worker: 0,
                missed_deadline: false,
            },
        };
        assert_eq!(r.latency_us(), Some(300));
        let shed = Response {
            id: 4,
            arrival_us: 0,
            outcome: Outcome::Shed { queue_depth: 8 },
        };
        assert_eq!(shed.latency_us(), None);
    }
}
