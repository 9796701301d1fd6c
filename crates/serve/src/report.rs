//! The serving report: latency percentiles, throughput, batching and
//! fleet-utilization statistics, with JSON output.

use vegeta::json::JsonValue;

/// Nearest-rank percentile over an already-sorted latency slice; 0 for an
/// empty slice. `pct` is in `[0, 100]`.
pub fn percentile_us(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Everything one serving run produced, ready for JSON.
///
/// All latency/throughput numbers are **virtual time** (see
/// [`VirtualClock`](crate::VirtualClock)): deterministic in the serving
/// config and load seed, independent of host machine and thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Engine the workers run.
    pub engine: String,
    /// Scheduler policy label: always `"lpt"` (longest processing time
    /// first), kept so report bytes and digests stay stable.
    pub scheduler: String,
    /// Fleet size (virtual workers).
    pub workers: usize,
    /// Simulator cores per worker.
    pub cores_per_worker: usize,
    /// Virtual-clock rate in GHz.
    pub clock_ghz: f64,
    /// Admission queue bound.
    pub queue_depth: usize,
    /// Batching window (virtual µs).
    pub window_us: u64,
    /// Batch size cap.
    pub max_batch: usize,
    /// Fidelity label the layer shapes ran at.
    pub fidelity: String,
    /// Load generator seed.
    pub seed: u64,
    /// Offered load (requests per virtual second).
    pub offered_qps: f64,
    /// Requests offered.
    pub offered: usize,
    /// Requests admitted past the frontend.
    pub admitted: usize,
    /// Requests rejected with a structured error at admission.
    pub rejected: usize,
    /// Requests shed because the queue was full.
    pub shed: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Completions past their deadline.
    pub deadline_misses: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Histogram of dispatched batch sizes as `(size, count)`, ascending.
    pub batch_hist: Vec<(usize, usize)>,
    /// Peak admitted-but-undispatched queue depth observed.
    pub max_queue_depth: usize,
    /// Virtual time from first arrival to last completion.
    pub makespan_us: u64,
    /// Completed requests per virtual second.
    pub achieved_qps: f64,
    /// Mean completion latency (µs).
    pub mean_latency_us: f64,
    /// 50th percentile latency (µs).
    pub p50_latency_us: u64,
    /// 95th percentile latency (µs).
    pub p95_latency_us: u64,
    /// 99th percentile latency (µs).
    pub p99_latency_us: u64,
    /// Worst completion latency (µs).
    pub max_latency_us: u64,
    /// Busy virtual µs per worker, indexed by worker id.
    pub per_worker_busy_us: Vec<u64>,
    /// Distinct batch keys simulated.
    pub distinct_keys: usize,
    /// Simulated cycles summed over the distinct keys.
    pub sim_cycles: u64,
    /// Host threads the phase-1 key simulation fanned out over.
    ///
    /// Host-side metadata only: it is deliberately **excluded** from
    /// [`to_json_value`](ServeReport::to_json_value) so reports stay
    /// byte-identical across host machines and thread counts.
    pub host_threads: usize,
}

impl ServeReport {
    /// Per-worker utilization: busy time over the makespan.
    pub fn utilization(&self) -> Vec<f64> {
        let span = self.makespan_us.max(1) as f64;
        self.per_worker_busy_us
            .iter()
            .map(|&b| b as f64 / span)
            .collect()
    }

    /// Mean utilization across the fleet.
    pub fn mean_utilization(&self) -> f64 {
        let u = self.utilization();
        if u.is_empty() {
            return 0.0;
        }
        u.iter().sum::<f64>() / u.len() as f64
    }

    /// The report as a JSON value (field order is fixed, so equal reports
    /// serialize byte-identically).
    pub fn to_json_value(&self) -> JsonValue {
        let num = JsonValue::Number;
        let int = |v: u64| JsonValue::Number(v as f64);
        let us = |v: usize| JsonValue::Number(v as f64);
        JsonValue::Object(vec![
            ("engine".into(), self.engine.as_str().into()),
            ("scheduler".into(), self.scheduler.as_str().into()),
            ("workers".into(), us(self.workers)),
            ("cores_per_worker".into(), us(self.cores_per_worker)),
            ("clock_ghz".into(), num(self.clock_ghz)),
            ("queue_depth".into(), us(self.queue_depth)),
            ("window_us".into(), int(self.window_us)),
            ("max_batch".into(), us(self.max_batch)),
            ("fidelity".into(), self.fidelity.as_str().into()),
            ("seed".into(), int(self.seed)),
            ("offered_qps".into(), num(self.offered_qps)),
            ("offered".into(), us(self.offered)),
            ("admitted".into(), us(self.admitted)),
            ("rejected".into(), us(self.rejected)),
            ("shed".into(), us(self.shed)),
            ("completed".into(), us(self.completed)),
            ("deadline_misses".into(), us(self.deadline_misses)),
            ("batches".into(), us(self.batches)),
            (
                "batch_hist".into(),
                JsonValue::Array(
                    self.batch_hist
                        .iter()
                        .map(|&(size, count)| {
                            JsonValue::Object(vec![
                                ("size".into(), us(size)),
                                ("count".into(), us(count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("max_queue_depth".into(), us(self.max_queue_depth)),
            ("makespan_us".into(), int(self.makespan_us)),
            ("achieved_qps".into(), num(self.achieved_qps)),
            ("mean_latency_us".into(), num(self.mean_latency_us)),
            ("p50_latency_us".into(), int(self.p50_latency_us)),
            ("p95_latency_us".into(), int(self.p95_latency_us)),
            ("p99_latency_us".into(), int(self.p99_latency_us)),
            ("max_latency_us".into(), int(self.max_latency_us)),
            (
                "per_worker_busy_us".into(),
                JsonValue::Array(self.per_worker_busy_us.iter().map(|&b| int(b)).collect()),
            ),
            (
                "utilization".into(),
                JsonValue::Array(self.utilization().into_iter().map(num).collect()),
            ),
            ("distinct_keys".into(), us(self.distinct_keys)),
            ("sim_cycles".into(), int(self.sim_cycles)),
        ])
    }

    /// The report as a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 50.0), 50);
        assert_eq!(percentile_us(&sorted, 95.0), 95);
        assert_eq!(percentile_us(&sorted, 99.0), 99);
        assert_eq!(percentile_us(&sorted, 100.0), 100);
        assert_eq!(percentile_us(&[7], 99.0), 7);
        assert_eq!(percentile_us(&[], 50.0), 0);
        // Small-n nearest rank: ceil(0.5 * 3) = 2nd of three.
        assert_eq!(percentile_us(&[10, 20, 30], 50.0), 20);
    }

    fn sample() -> ServeReport {
        ServeReport {
            engine: "VEGETA-S-16-2".into(),
            scheduler: "lpt".into(),
            workers: 2,
            cores_per_worker: 2,
            clock_ghz: 2.0,
            queue_depth: 64,
            window_us: 200,
            max_batch: 8,
            fidelity: "quick8".into(),
            seed: 7,
            offered_qps: 1000.0,
            offered: 4,
            admitted: 4,
            rejected: 0,
            shed: 0,
            completed: 4,
            deadline_misses: 0,
            batches: 2,
            batch_hist: vec![(2, 2)],
            max_queue_depth: 2,
            makespan_us: 1000,
            achieved_qps: 4000.0,
            mean_latency_us: 250.0,
            p50_latency_us: 200,
            p95_latency_us: 400,
            p99_latency_us: 400,
            max_latency_us: 400,
            per_worker_busy_us: vec![500, 250],
            distinct_keys: 2,
            sim_cycles: 1_500_000,
            host_threads: 2,
        }
    }

    #[test]
    fn utilization_divides_by_makespan() {
        let r = sample();
        assert_eq!(r.utilization(), vec![0.5, 0.25]);
        assert!((r.mean_utilization() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips_and_is_stable() {
        let r = sample();
        let text = r.to_json();
        assert_eq!(text, r.to_json(), "serialization must be stable");
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(v.get("engine").unwrap().as_str(), Some("VEGETA-S-16-2"));
        assert_eq!(v.get("completed").unwrap().as_u64(), Some(4));
        assert_eq!(
            v.get("batch_hist").unwrap().as_array().unwrap()[0]
                .get("size")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }
}
