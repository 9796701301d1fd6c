//! The single-core L1 memo refuses another L1 configuration: a memo
//! recorded by one lane under the default L1 must not replay under a
//! 5-line L1, and the refusal names both `(l1_lines, l1_latency,
//! l2_latency)` triples. The memoized entry point returns the refusal as
//! an error; `Sweep` and `Session` panic on it with this message, as the
//! `expect` below does.
//!
//! The differential checks of the memo, the other refusals and the
//! sharded cases live in `shard_memo.rs`.

use vegeta_engine::EngineConfig;
use vegeta_kernels::{GemmShape, KernelOptions, KernelSpec, SparseMode};
use vegeta_sim::{L1Memo, MultiCoreConfig, MultiCoreSim, SimConfig};

#[test]
#[should_panic(
    expected = "L1 memo recorded under (l1_lines 768, l1_latency 5, l2_latency 14) \
                           cannot replay under (l1_lines 5, l1_latency 5, l2_latency 14)"
)]
fn a_memo_refuses_another_l1_config() {
    let shape = GemmShape::new(32, 32, 128);
    let spec = KernelSpec::Tiled {
        mode: SparseMode::Dense,
        opts: KernelOptions::default(),
    };
    let memo = L1Memo::new();
    let run = |cfg: SimConfig| {
        MultiCoreSim::new(MultiCoreConfig::with_core(cfg, 1), EngineConfig::rasa_dm())
            .run_sharded_memoized(vec![spec.stream(shape)], None, &memo)
            .expect("a fresh simulator and a matching memo")
    };
    run(SimConfig::default());
    run(SimConfig {
        l1_lines: 5,
        ..SimConfig::default()
    });
}
