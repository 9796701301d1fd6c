//! Statically verifies every instruction stream the evaluation replays —
//! the deduped Fig. 13 kernel grid plus the multi-core shard
//! decompositions — and exits nonzero on any diagnostic. With
//! `--self-test`, runs the mutation corpus instead and exits nonzero
//! unless every seeded defect is rejected with its expected code. With
//! `--replay`, replays each verified cell through the production
//! simulator and exits nonzero unless the instruction counts the
//! simulator consumes match the op counts the verifier walked and every
//! multi-core result matches the stepped reference scan.
//! Set `VEGETA_QUICK=1` for a scaled-down fast run.

fn main() {
    let self_test = std::env::args().any(|a| a == "--self-test");
    let replay = std::env::args().any(|a| a == "--replay");
    let ok = if self_test {
        vegeta_bench::run_self_test()
    } else if replay {
        vegeta_bench::print_replay_check()
    } else {
        vegeta_bench::print_lint_sweep()
    };
    if !ok {
        std::process::exit(1);
    }
}
