//! Property tests for the static verifier: every stream the generators
//! produce — all kernel families × shard plans × ragged shapes — verifies
//! clean, and every mutation-corpus entry is rejected with its expected
//! diagnostic.

use proptest::prelude::*;
use vegeta_kernels::{GemmShape, Kernel, KernelOptions, KernelSpec, ShardPlan, SparseMode};
use vegeta_lint::{run_corpus, verify_shard_set_with, verify_spec};
use vegeta_sparse::NmRatio;

/// One spec per kernel family/mode, including a no-overhead low-unroll
/// tiled variant (mirrors the sharding property suite).
fn all_family_specs() -> Vec<KernelSpec> {
    let mut ratios = vec![NmRatio::S1_4; 11];
    ratios.extend(vec![NmRatio::S2_4; 9]);
    ratios.extend(vec![NmRatio::D4_4; 4]);
    vec![
        KernelSpec::Tiled {
            mode: SparseMode::Dense,
            opts: KernelOptions::default(),
        },
        KernelSpec::Tiled {
            mode: SparseMode::Nm2of4,
            opts: KernelOptions::default(),
        },
        KernelSpec::Tiled {
            mode: SparseMode::Nm1of4,
            opts: KernelOptions::default(),
        },
        KernelSpec::Tiled {
            mode: SparseMode::Nm2of4,
            opts: KernelOptions {
                unroll: 1,
                loop_overhead: false,
            },
        },
        KernelSpec::Listing1 {
            mode: SparseMode::Dense,
        },
        KernelSpec::Listing1 {
            mode: SparseMode::Nm1of4,
        },
        KernelSpec::RowWise { row_ratios: ratios },
        KernelSpec::Vector,
    ]
}

#[test]
fn every_family_verifies_clean_at_a_fixed_ragged_shape() {
    let shape = GemmShape::new(93, 41, 197);
    for spec in all_family_specs() {
        let report = verify_spec(&spec, shape);
        assert!(report.is_clean(), "{}: {report}", spec.name());
        assert!(report.ops_checked > 0, "{}", spec.name());
    }
}

#[test]
fn shard_plan_sweep_verifies_clean_for_every_family() {
    let shape = GemmShape::new(96, 64, 256);
    for spec in all_family_specs() {
        for cores in [1, 2, 4, 8, 16] {
            let report = vegeta_lint::verify_shard_set(&spec, shape, cores);
            assert!(
                report.is_clean(),
                "{} @ {cores} cores: {report}",
                spec.name()
            );
        }
    }
}

#[test]
fn mutation_corpus_is_fully_rejected() {
    let corpus = run_corpus();
    assert!(corpus.len() >= 12, "corpus has {} operators", corpus.len());
    for (mutation, report) in corpus {
        assert!(!report.is_clean(), "{} was not rejected", mutation.name());
        assert!(
            report.has(mutation.expect()),
            "{} expected {} but got: {report}",
            mutation.name(),
            mutation.expect()
        );
    }
}

proptest! {
    /// Any ragged shape, any family: the unsharded stream verifies clean.
    #[test]
    fn prop_streams_verify_clean(
        spec_idx in 0usize..8,
        m in 1usize..120,
        n in 1usize..90,
        k in 1usize..220,
    ) {
        let spec = &all_family_specs()[spec_idx];
        let report = verify_spec(spec, GemmShape::new(m, n, k));
        prop_assert!(report.is_clean(), "{}: {report}", spec.name());
    }

    /// Any ragged shape, any family, any shard plan: the 2D/K-split set
    /// (with its reduction, when K splits) verifies clean.
    #[test]
    fn prop_shard_sets_verify_clean(
        spec_idx in 0usize..8,
        m in 1usize..120,
        n in 1usize..90,
        k in 1usize..220,
        ms in 1usize..5,
        ns in 1usize..5,
        ks in 1usize..4,
    ) {
        let spec = &all_family_specs()[spec_idx];
        let shape = GemmShape::new(m, n, k);
        let report = verify_shard_set_with(spec, shape, ShardPlan::new(ms, ns, ks));
        prop_assert!(report.is_clean(), "{}: {report}", spec.name());
    }
}
