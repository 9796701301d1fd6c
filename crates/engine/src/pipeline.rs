//! Pipelined execution of tile instructions on a VEGETA engine (§V-C,
//! Fig. 10).
//!
//! Execution of one tile GEMM/SPMM is split into four stages:
//!
//! * **WL** (Weight Load) — `Nrows` cycles of loading stationary weights;
//! * **FF** (Feed First) — `Tn` cycles while the top-left PE receives inputs;
//! * **FS** (Feed Second) — `Nrows − 1` cycles of skewed residual feeding;
//! * **DR** (Drain) — flush plus bottom reduction.
//!
//! Independent instructions overlap as long as no two occupy the same stage,
//! which bounds the issue interval by the longest stage
//! ([`EngineConfig::issue_interval`]). Dependent instructions (accumulating
//! into the same `C` register) stall until the producer has written `C` back
//! — unless **output forwarding** (OF) is enabled, in which case the consumer
//! may trail the producer by `Nrows + ⌈log₂β⌉` cycles, because `C` elements
//! are read and written in the same order at one element per column per cycle.

use crate::config::{log2_ceil, EngineConfig};

/// Identifier of the accumulator register a tile instruction accumulates
/// into (treg/ureg index at treg granularity).
pub type AccId = u8;

/// Timing of one scheduled tile instruction, in engine cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstTiming {
    /// Cycle the instruction enters the WL stage.
    pub start: u64,
    /// Cycle the instruction's last result is architecturally visible.
    pub completion: u64,
}

/// Incremental scheduler for the matrix engine's structural and data
/// hazards. The CPU simulator drives one of these per engine.
///
/// # Examples
///
/// ```
/// use vegeta_engine::{EngineConfig, EngineTimer};
///
/// let cfg = EngineConfig::vegeta_s(16).unwrap().with_output_forwarding(true);
/// let mut timer = EngineTimer::new(cfg);
/// let first = timer.issue(2, 0);
/// let second = timer.issue(2, 0); // accumulates into the same treg
/// // With OF the dependent instruction trails by Nrows + log2(beta) = 17.
/// assert_eq!(second.start - first.start, 17);
/// ```
#[derive(Debug, Clone)]
pub struct EngineTimer {
    cfg: EngineConfig,
    /// [`EngineConfig::issue_interval`], computed once: the issue path
    /// runs once per tile compute instruction.
    issue_interval: u64,
    /// [`EngineConfig::instruction_latency`].
    latency: u64,
    /// The start gap of a dependent instruction behind its producer: with
    /// output forwarding `Nrows + log2(beta)` after the producer's start,
    /// without it the WL latency before the producer's completion.
    chain_gap: u64,
    last_start: Option<u64>,
    /// Last scheduled instruction per accumulator, indexed directly by the
    /// [`AccId`] (a flat 256-slot table — the issue path runs once per tile
    /// compute instruction, so it avoids hashing).
    by_acc: Box<[Option<InstTiming>; 256]>,
    busy_until: u64,
    issued: u64,
}

impl EngineTimer {
    /// Creates a timer for the given engine.
    pub fn new(cfg: EngineConfig) -> Self {
        let chain_gap = if cfg.output_forwarding() {
            cfg.nrows() + log2_ceil(cfg.beta())
        } else {
            cfg.wl_latency()
        };
        EngineTimer {
            issue_interval: cfg.issue_interval() as u64,
            latency: cfg.instruction_latency() as u64,
            chain_gap: chain_gap as u64,
            cfg,
            last_start: None,
            by_acc: Box::new([None; 256]),
            busy_until: 0,
            issued: 0,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Number of instructions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Cycle at which the last scheduled instruction completes.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Earliest start cycle for an instruction accumulating into `acc` whose
    /// source operands become ready at `ready`.
    pub fn earliest_start(&self, acc: AccId, ready: u64) -> u64 {
        let mut start = ready;
        // Structural: in-order issue, one instruction per stage.
        if let Some(prev) = self.last_start {
            start = start.max(prev + self.issue_interval);
        }
        // Data: accumulation chain on the same C register.
        if let Some(producer) = self.by_acc[acc as usize] {
            let gap = if self.cfg.output_forwarding() {
                // The consumer reads C at its FF start (start + WL); the
                // producer writes the first C element at
                // producer.start + WL + Nrows + log2(beta). Matching
                // stream order and rate, the consumer start may trail the
                // producer start by Nrows + log2(beta).
                producer.start + self.chain_gap
            } else {
                // Without OF the consumer's FF must wait for the producer's
                // full writeback.
                producer.completion.saturating_sub(self.chain_gap)
            };
            start = start.max(gap);
        }
        start
    }

    /// Schedules an instruction, returning its timing.
    pub fn issue(&mut self, acc: AccId, ready: u64) -> InstTiming {
        let start = self.earliest_start(acc, ready);
        let completion = start + self.latency;
        let timing = InstTiming { start, completion };
        self.last_start = Some(start);
        self.by_acc[acc as usize] = Some(timing);
        self.busy_until = self.busy_until.max(completion);
        self.issued += 1;
        timing
    }
}

/// One tile instruction for batch scheduling: the accumulator it updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileOp {
    /// Accumulator register identity.
    pub acc: AccId,
}

/// Batch-schedules a sequence of tile instructions that are all ready at
/// cycle 0, returning per-instruction timings and the makespan. This models
/// the engine in isolation (Fig. 10); the full-core model lives in
/// `vegeta-sim`.
pub fn schedule_sequence(cfg: &EngineConfig, ops: &[TileOp]) -> (Vec<InstTiming>, u64) {
    let mut timer = EngineTimer::new(cfg.clone());
    let timings: Vec<InstTiming> = ops.iter().map(|op| timer.issue(op.acc, 0)).collect();
    let total = timings.iter().map(|t| t.completion).max().unwrap_or(0);
    (timings, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn independent(n: usize) -> Vec<TileOp> {
        (0..n).map(|i| TileOp { acc: i as u8 }).collect()
    }

    fn dependent(n: usize) -> Vec<TileOp> {
        vec![TileOp { acc: 2 }; n]
    }

    #[test]
    fn independent_ops_issue_at_the_interval() {
        // Fig. 10 (a)/(b): independent instructions start every
        // issue_interval cycles on both D-1-2 and S-16-2 (16 cycles).
        for cfg in [EngineConfig::rasa_dm(), EngineConfig::vegeta_s(16).unwrap()] {
            let (timings, _) = schedule_sequence(&cfg, &independent(4));
            for w in timings.windows(2) {
                assert_eq!(w[1].start - w[0].start, 16, "{}", cfg.name());
            }
        }
    }

    #[test]
    fn rasa_sm_stage_mismatch_slows_issue() {
        // §VI-C: RASA-SM suffers from stage mismatch: WL is 32 cycles while
        // FF is 16, so its issue interval is twice RASA-DM's.
        let (timings, _) = schedule_sequence(&EngineConfig::rasa_sm(), &independent(3));
        assert_eq!(timings[1].start - timings[0].start, 32);
    }

    #[test]
    fn dependent_ops_without_of_serialize_on_writeback() {
        let cfg = EngineConfig::vegeta_s(16).unwrap();
        let (timings, _) = schedule_sequence(&cfg, &dependent(2));
        // Second must delay its FF (start + WL) until the first completes.
        assert_eq!(
            timings[1].start + cfg.wl_latency() as u64,
            timings[0].completion
        );
    }

    #[test]
    fn output_forwarding_shrinks_dependent_gap() {
        let base = EngineConfig::vegeta_s(16).unwrap();
        let (no_of, total_no_of) = schedule_sequence(&base, &dependent(8));
        let cfg_of = base.with_output_forwarding(true);
        let (with_of, total_of) = schedule_sequence(&cfg_of, &dependent(8));
        let gap_no_of = no_of[1].start - no_of[0].start;
        let gap_of = with_of[1].start - with_of[0].start;
        assert!(gap_of < gap_no_of, "OF gap {gap_of} vs {gap_no_of}");
        // Fig. 10 (d): with OF the chain is nearly fully pipelined:
        // Nrows + log2(beta) = 17 cycles apart.
        assert_eq!(gap_of, 17);
        assert!(total_of < total_no_of);
    }

    #[test]
    fn of_makes_dependent_nearly_as_fast_as_independent() {
        let cfg = EngineConfig::vegeta_s(16)
            .unwrap()
            .with_output_forwarding(true);
        let (_, dep_total) = schedule_sequence(&cfg, &dependent(16));
        let (_, ind_total) = schedule_sequence(&cfg, &independent(16));
        // Within ~7% for a 16-deep chain.
        assert!(
            (dep_total as f64) < ind_total as f64 * 1.07,
            "{dep_total} vs {ind_total}"
        );
    }

    #[test]
    fn interleaving_accumulators_avoids_stalls_without_of() {
        // Software can hide the dependence by rotating two accumulators —
        // the optimized-kernel trick the simulator relies on.
        let cfg = EngineConfig::vegeta_s(16).unwrap();
        let rotated: Vec<TileOp> = (0..8).map(|i| TileOp { acc: (i % 2) as u8 }).collect();
        let (timings, _) = schedule_sequence(&cfg, &rotated);
        // With two accumulators, the same-acc producer is two issues back;
        // dependence is already satisfied by the structural interval most of
        // the time.
        let gaps: Vec<u64> = timings
            .windows(2)
            .map(|w| w[1].start - w[0].start)
            .collect();
        let avg = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(
            avg < 24.0,
            "rotating accumulators should approach the issue interval, avg {avg}"
        );
    }

    #[test]
    fn ready_time_is_respected() {
        let cfg = EngineConfig::rasa_dm();
        let mut timer = EngineTimer::new(cfg);
        let t = timer.issue(0, 100);
        assert_eq!(t.start, 100);
        let t2 = timer.issue(1, 0);
        assert_eq!(t2.start, 116, "structural hazard from the first op");
    }

    #[test]
    fn completion_adds_instruction_latency() {
        let cfg = EngineConfig::vegeta_s(2).unwrap();
        let mut timer = EngineTimer::new(cfg.clone());
        let t = timer.issue(3, 7);
        assert_eq!(t.completion, 7 + cfg.instruction_latency() as u64);
        assert_eq!(timer.busy_until(), t.completion);
        assert_eq!(timer.issued(), 1);
    }
}
