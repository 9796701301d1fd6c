//! The verification driver: walks emitters block-by-block, runs every
//! pass, and rolls findings into a [`Report`].

use std::ops::Range;

use vegeta_isa::footprint::Footprint;
use vegeta_isa::stream::{BlockEmitter, InstStream};
use vegeta_isa::trace::TraceOp;
use vegeta_kernels::{GemmShape, KernelEmitter, KernelSpec, ShardKind, ShardPlan, ShardSet};

use crate::bounds::{check_bounds, normalize_runs, AccessSummary, BoundsPass};
use crate::coverage::{check_coverage, CoverBox};
use crate::dataflow::{DataflowConfig, DataflowPass};
use crate::diag::{DiagCode, Diagnostic, Report};

/// Per-stream diagnostic cap: a single seeded defect can fire on every
/// iteration of a loop nest, so stop walking a stream once it is clearly
/// broken rather than materializing millions of findings.
pub const MAX_DIAGS_PER_STREAM: usize = 64;

/// Verifier configuration (currently the dataflow live-in assumptions).
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Live-in assumptions for the dataflow pass.
    pub dataflow: DataflowConfig,
}

/// Statically verifies one block emitter against its declared footprint
/// and declared total length, running the dataflow, bounds, and length
/// passes in a single walk.
///
/// Returns the findings, the memory-traffic summary the set-level checks
/// consume, and the number of ops walked.
pub fn verify_blocks<E: BlockEmitter>(
    emitter: &E,
    declared_total: u64,
    fp: &Footprint,
    cfg: &LintConfig,
) -> (Vec<Diagnostic>, AccessSummary, u64) {
    let mut dataflow = DataflowPass::new(&cfg.dataflow);
    let mut bounds = BoundsPass::new(fp);
    let mut diags = Vec::new();
    let mut emitted_total = 0u64;
    let mut buf: Vec<TraceOp> = Vec::new();
    let mut truncated = false;
    for block in 0..emitter.blocks() {
        buf.clear();
        emitter.emit_block(block, &mut buf);
        let declared = emitter.block_ops(block);
        if buf.len() as u64 != declared {
            diags.push(Diagnostic::new(
                DiagCode::BlockLengthMismatch,
                format!(
                    "block {block} declares {declared} ops but emits {}",
                    buf.len()
                ),
            ));
        }
        emitted_total += buf.len() as u64;
        for op in &buf {
            dataflow.op(op);
            bounds.op(op);
        }
        if dataflow.diagnostics().len() + bounds.diagnostics().len() + diags.len()
            > MAX_DIAGS_PER_STREAM
        {
            truncated = true;
            break;
        }
    }
    if !truncated && emitted_total != declared_total {
        diags.push(Diagnostic::new(
            DiagCode::StreamLengthMismatch,
            format!("stream declares {declared_total} ops but emits {emitted_total}"),
        ));
    }
    if truncated {
        diags.extend(dataflow.finish().into_iter().filter(|d| {
            // Mid-stream truncation leaves live accumulators; only the
            // use/clobber findings are meaningful.
            d.code != DiagCode::UnconsumedWrite
        }));
    } else {
        diags.extend(dataflow.finish());
    }
    let (bounds_diags, summary) = bounds.finish();
    diags.extend(bounds_diags);
    (diags, summary, emitted_total)
}

/// Verifies a complete op sequence (no block structure) against `fp`:
/// the dataflow and bounds passes only. Returns the findings and the
/// traffic summary.
pub fn verify_ops(
    ops: &[TraceOp],
    fp: &Footprint,
    cfg: &LintConfig,
) -> (Vec<Diagnostic>, AccessSummary) {
    let mut diags = crate::dataflow::check_dataflow(ops, &cfg.dataflow);
    let (bounds_diags, summary) = check_bounds(ops, fp);
    diags.extend(bounds_diags);
    (diags, summary)
}

/// Set-level checks over already-verified per-stream results: coverage of
/// the `(m_units, n_units, k_units)` grid, pairwise disjointness of the
/// shards' tile-store write sets, and K-split/reduction matching.
///
/// `shards` pairs each shard's [`ShardKind`] with its traffic summary;
/// `reduction` carries the reduction's declared part count and summary
/// when present.
pub fn check_set(
    dims: (usize, usize, usize),
    shards: &[(ShardKind, AccessSummary)],
    reduction: Option<(usize, &AccessSummary)>,
) -> Vec<Diagnostic> {
    let (m_units, n_units, k_units) = dims;
    let boxes: Vec<CoverBox> = shards
        .iter()
        .filter_map(|(kind, _)| CoverBox::from_kind(kind, k_units))
        .collect();
    let mut diags = check_coverage(m_units, n_units, k_units, &boxes);

    // Concurrent shards must never write the same cache line. One witness
    // per set is enough; a systematic overlap would otherwise flood the
    // report.
    if let Some((a, b, line)) = first_write_overlap(shards) {
        diags.push(
            Diagnostic::new(
                DiagCode::ShardWriteOverlap,
                format!(
                    "shards {a} and {b} both write line {:#x}",
                    line * vegeta_isa::CACHE_LINE_BYTES as u64
                ),
            )
            .in_shard(b),
        );
    }

    // Every K-split needs a matching reduction, and vice versa.
    let k_parts: Vec<usize> = shards
        .iter()
        .filter_map(|(kind, _)| match kind {
            ShardKind::KSlice { part, .. } => Some(*part),
            _ => None,
        })
        .collect();
    let split_parts = k_parts.iter().max().map_or(0, |m| m + 1);
    match (reduction, split_parts) {
        (None, 0) => {}
        (None, _) => diags.push(Diagnostic::new(
            DiagCode::ReductionMismatch,
            format!("{split_parts} K-split parts but no reduction stream"),
        )),
        (Some((parts, _)), 0) => diags.push(Diagnostic::new(
            DiagCode::ReductionMismatch,
            format!("reduction stream for {parts} parts but no K-split shards"),
        )),
        (Some((parts, summary)), _) => {
            if parts != split_parts {
                diags.push(Diagnostic::new(
                    DiagCode::ReductionMismatch,
                    format!("reduction merges {parts} parts but shards produce {split_parts}"),
                ));
            }
            let written = normalize_runs(shards.iter().flat_map(|(_, s)| s.partial_store_lines()));
            let read = normalize_runs(summary.partial_read_lines.iter().cloned());
            if read != written {
                let lines = |runs: &[Range<u64>]| runs.iter().map(|r| r.end - r.start).sum::<u64>();
                diags.push(Diagnostic::new(
                    DiagCode::ReductionMismatch,
                    format!(
                        "reduction reads {} partial-C lines but shards wrote {}",
                        lines(&read),
                        lines(&written)
                    ),
                ));
            }
        }
    }
    diags
}

/// The first line, in address order, that two shards' tile stores both
/// write: `(lower shard, higher shard, line)`.
///
/// Each shard's runs are normalized first, so runs of one shard never
/// overlap. Sweeping all runs by start, a run then overlaps an earlier one
/// exactly when the furthest-reaching earlier run ends past its start, and
/// that run belongs to another shard.
fn first_write_overlap(shards: &[(ShardKind, AccessSummary)]) -> Option<(usize, usize, u64)> {
    let mut runs: Vec<(u64, u64, usize)> = shards
        .iter()
        .enumerate()
        .flat_map(|(i, (_, s))| {
            normalize_runs(s.store_lines.iter().map(|(run, _)| run.clone()))
                .into_iter()
                .map(move |run| (run.start, run.end, i))
        })
        .collect();
    runs.sort_unstable();
    // `(end, shard)` of the furthest-reaching run so far.
    let mut furthest: Option<(u64, usize)> = None;
    for (start, end, shard) in runs {
        match furthest {
            Some((f_end, owner)) if f_end > start => {
                return Some((owner.min(shard), owner.max(shard), start))
            }
            Some((f_end, _)) if f_end >= end => {}
            _ => furthest = Some((end, shard)),
        }
    }
    None
}

/// Verifies the unsharded stream of `spec` at `shape`: dataflow, bounds,
/// and length accounting over every block.
pub fn verify_spec(spec: &KernelSpec, shape: GemmShape) -> Report {
    let cfg = LintConfig::default();
    let emitter = KernelEmitter::for_spec(spec, shape);
    let fp = emitter.footprint();
    let declared = spec.stream(shape).remaining();
    let (diags, _, ops) = verify_blocks(&emitter, declared, &fp, &cfg);
    Report {
        diagnostics: diags,
        ops_checked: ops,
        streams_checked: 1,
    }
}

/// Verifies the 2D/K-split [`ShardPlan`] `spec.shard_plan(shape, cores)`
/// picks — the set LPT scheduling runs (see
/// [`vegeta_kernels::KernelSpec::shard_set`]).
pub fn verify_shard_set(spec: &KernelSpec, shape: GemmShape, cores: usize) -> Report {
    verify_shard_set_with(spec, shape, spec.shard_plan(shape, cores))
}

/// Verifies the shard set `plan` cuts `spec` into at `shape`: every shard
/// stream (dataflow/bounds/lengths), exact grid coverage, write-set
/// disjointness, and the K-split/reduction contract.
pub fn verify_shard_set_with(spec: &KernelSpec, shape: GemmShape, plan: ShardPlan) -> Report {
    let emitter = KernelEmitter::for_spec(spec, shape);
    let ShardSet { shards, reduction } = emitter.clone().shard_with(plan);
    let cfg = LintConfig::default();
    let (m_units, n_units) = emitter.shard_layout();
    let k_units = emitter.k_units();
    let split_parts = shards
        .iter()
        .filter_map(|s| match s.emitter().kind() {
            ShardKind::KSlice { part, .. } => Some(part + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let fp = emitter.footprint_with_partials(split_parts);
    let mut report = Report::default();
    let mut results: Vec<(ShardKind, AccessSummary)> = Vec::with_capacity(shards.len());
    for (i, shard) in shards.iter().enumerate() {
        let (diags, summary, ops) = verify_blocks(shard.emitter(), shard.remaining(), &fp, &cfg);
        report
            .diagnostics
            .extend(diags.into_iter().map(|d| d.in_shard(i)));
        report.ops_checked += ops;
        report.streams_checked += 1;
        results.push((shard.emitter().kind(), summary));
    }
    let reduction_result = reduction.map(|r| {
        let (diags, summary, ops) = verify_blocks(r.emitter(), r.remaining(), &fp, &cfg);
        report.diagnostics.extend(diags);
        report.ops_checked += ops;
        report.streams_checked += 1;
        let parts = match r.emitter().kind() {
            ShardKind::Reduction { parts } => parts,
            _ => 0,
        };
        (parts, summary)
    });
    report.diagnostics.extend(check_set(
        (m_units, n_units, k_units),
        &results,
        reduction_result.as_ref().map(|(p, s)| (*p, s)),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegeta_isa::footprint::RegionClass;

    /// Two full-depth shards splitting a 2×1×1 grid, storing the
    /// `(start, end)` line runs `a` and `b`.
    fn rect_pair(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(ShardKind, AccessSummary)> {
        let shard = |row: usize, runs: &[(u64, u64)]| {
            let kind = ShardKind::Rect {
                rows: row..row + 1,
                cols: 0..1,
            };
            let summary = AccessSummary {
                store_lines: runs.iter().map(|&(s, e)| (s..e, RegionClass::C)).collect(),
                partial_read_lines: Vec::new(),
            };
            (kind, summary)
        };
        vec![shard(0, a), shard(1, b)]
    }

    fn codes(diags: &[Diagnostic]) -> Vec<DiagCode> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn straddling_runs_of_two_shards_overlap() {
        let shards = rect_pair(&[(0, 16), (32, 48)], &[(16, 20), (44, 60)]);
        let diags = check_set((2, 1, 1), &shards, None);
        assert_eq!(codes(&diags), [DiagCode::ShardWriteOverlap]);
        assert!(
            diags[0]
                .message
                .contains("shards 0 and 1 both write line 0xb00"),
            "witness is the first shared line (44 * 64): {}",
            diags[0].message
        );
        assert_eq!(diags[0].shard, Some(1));
        // A run nested inside another shard's run, listed out of order;
        // and a shard whose own runs overlap each other reaching one line
        // into the other shard's run.
        let shards = rect_pair(&[(100, 101), (0, 64)], &[(80, 90), (10, 11)]);
        assert_eq!(
            codes(&check_set((2, 1, 1), &shards, None)),
            [DiagCode::ShardWriteOverlap]
        );
        let shards = rect_pair(&[(5, 6), (5, 40)], &[(39, 41)]);
        assert_eq!(
            codes(&check_set((2, 1, 1), &shards, None)),
            [DiagCode::ShardWriteOverlap]
        );
    }

    #[test]
    fn adjacent_runs_and_same_shard_overlaps_are_clean() {
        // Shard 1 starts exactly where shard 0 ends, and vice versa.
        let shards = rect_pair(&[(0, 16), (32, 48)], &[(16, 32), (48, 64)]);
        assert!(check_set((2, 1, 1), &shards, None).is_empty());
        // A shard may store the same lines twice (and its own runs may
        // overlap in any order) without tripping the cross-shard check.
        let shards = rect_pair(&[(0, 16), (8, 24), (0, 4), (24, 25)], &[(25, 40), (30, 35)]);
        assert!(check_set((2, 1, 1), &shards, None).is_empty());
    }

    /// A 2-way K-split of a 1×1×2 grid whose shards store `parts`, and
    /// the reduction summary reading `reads`.
    fn ksplit(
        parts: [&[(u64, u64)]; 2],
        reads: &[(u64, u64)],
    ) -> (Vec<(ShardKind, AccessSummary)>, AccessSummary) {
        let shards = parts
            .iter()
            .enumerate()
            .map(|(part, runs)| {
                let kind = ShardKind::KSlice {
                    rows: 0..1,
                    cols: 0..1,
                    kts: part..part + 1,
                    part,
                };
                let summary = AccessSummary {
                    store_lines: runs
                        .iter()
                        .map(|&(s, e)| (s..e, RegionClass::PartialC))
                        .collect(),
                    partial_read_lines: Vec::new(),
                };
                (kind, summary)
            })
            .collect();
        let reduction = AccessSummary {
            store_lines: vec![(0..32, RegionClass::C)],
            partial_read_lines: reads.iter().map(|&(s, e)| s..e).collect(),
        };
        (shards, reduction)
    }

    #[test]
    fn reduction_reads_split_differently_but_covering_the_same_lines_are_clean() {
        // The shards write [100, 132) and [200, 232) in 16-line tiles; the
        // reduction reads them in other pieces, out of order, one line
        // twice, and with the two parts' halves interleaved.
        let (shards, reduction) = ksplit(
            [&[(100, 116), (116, 132)], &[(216, 232), (200, 216)]],
            &[(200, 201), (100, 108), (201, 232), (108, 132), (120, 121)],
        );
        assert!(check_set((1, 1, 2), &shards, Some((2, &reduction))).is_empty());
    }

    #[test]
    fn one_missing_reduction_line_is_a_mismatch() {
        let (shards, reduction) = ksplit(
            [&[(100, 132)], &[(200, 232)]],
            &[(100, 132), (200, 215), (216, 232)],
        );
        let diags = check_set((1, 1, 2), &shards, Some((2, &reduction)));
        assert_eq!(codes(&diags), [DiagCode::ReductionMismatch]);
        assert!(
            diags[0]
                .message
                .contains("reduction reads 63 partial-C lines but shards wrote 64"),
            "{}",
            diags[0].message
        );
        // One extra line read is a mismatch too.
        let (shards, reduction) = ksplit([&[(100, 132)], &[(200, 232)]], &[(100, 132), (199, 232)]);
        assert_eq!(
            codes(&check_set((1, 1, 2), &shards, Some((2, &reduction)))),
            [DiagCode::ReductionMismatch]
        );
    }
}
