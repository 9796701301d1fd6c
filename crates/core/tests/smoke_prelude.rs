//! Smoke test: the `vegeta::prelude` re-exports stay importable and usable.
//!
//! This mirrors the quickstart doctest in `crates/core/src/lib.rs` so a
//! broken prelude or a broken quickstart fails `cargo test` even when
//! doctests are skipped.

use vegeta::prelude::*;

#[test]
fn prelude_reexports_compile_and_work() {
    // Every prelude item must resolve; exercise one per module family.
    let mut rng = rand_seed(42);
    let dense = vegeta::sparse::prune::random_nm(16, 64, NmRatio::S2_4, &mut rng);
    let tile = CompressedTile::compress(&dense, NmRatio::S2_4).expect("2:4 tile compresses");
    assert_eq!(tile.decompress(), dense);

    // Type-position uses of the remaining prelude exports.
    assert!(TReg::new(0).is_ok());
    assert!(UReg::new(0).is_ok());
    assert!(VReg::new(0).is_ok());
    let _ = EngineConfig::vegeta_s(16).expect("valid design point");
    let _ = SimConfig::default();
    let _ = KernelOptions::default();
    let _ = GranularityModel::default();
    let _ = Matrix::<Bf16>::zeros(4, 4);

    // The experiment API: Session/Cell/Sweep, kernel polymorphism, reports.
    let session = Session::new(EngineConfig::stc_like());
    assert_eq!(
        session.engine().execution_mode(NmRatio::S1_4),
        SparseMode::Nm2of4
    );
    let cell = Cell::shape("smoke", GemmShape::new(16, 16, 32), NmRatio::S1_4);
    assert_eq!(session.run(&cell).kernel, "tiled-2of4-u3");
    let spec = KernelSpec::tiled(SparseMode::Dense);
    assert!(!spec.build(GemmShape::new(16, 16, 32)).is_empty());
    let _cache = TraceCache::new();
    let _sweep = Sweep::new();
    assert_eq!(figure13_engines().len(), 10);
    assert_eq!(figure13_sparsities().len(), 3);
    assert_eq!(geomean(&[]), None);
}

#[test]
fn quickstart_sequence_matches_doctest() {
    // Keep in sync with the doctest in crates/core/src/lib.rs.
    let mut rng = rand_seed(42);
    let dense = vegeta::sparse::prune::random_nm(16, 64, NmRatio::S2_4, &mut rng);
    let tile = CompressedTile::compress(&dense, NmRatio::S2_4).unwrap();
    assert_eq!(tile.decompress(), dense);
}
