//! The worker pool: simulated multi-core workers behind a channel work
//! queue, plus the virtual clock that converts cycles to service time.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use vegeta::prelude::*;

use crate::request::BatchKey;

/// Converts simulated core cycles to virtual-clock microseconds.
///
/// Serving time is *simulated* time: a batch that takes `c` cycles on a
/// worker core clocked at `ghz` occupies that worker for
/// `ceil(c / (ghz * 1000))` µs of the serving timeline, floored at 1 µs so
/// service is never free. No wall-clock measurement enters the timeline,
/// which is what makes latency percentiles host-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualClock {
    ghz: f64,
}

impl VirtualClock {
    /// A clock at `ghz` GHz.
    ///
    /// # Panics
    /// If `ghz` is not finite and positive.
    pub fn new(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "clock rate must be positive");
        VirtualClock { ghz }
    }

    /// The clock rate in GHz.
    pub fn ghz(self) -> f64 {
        self.ghz
    }

    /// Cycles to whole microseconds, rounded up, at least 1.
    pub fn cycles_to_us(self, cycles: u64) -> u64 {
        ((cycles as f64 / (self.ghz * 1e3)).ceil() as u64).max(1)
    }
}

/// What simulating one batch key cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOutcome {
    /// Simulated core cycles (makespan across the worker's cores).
    pub cycles: u64,
    /// Dynamic instructions simulated.
    pub instructions: u64,
    /// The cycles on the virtual clock: how long the batch occupies its
    /// worker.
    pub service_us: u64,
}

/// A pool of simulated multi-core workers.
///
/// Each worker models one fleet machine: `cores` simulator cores behind a
/// shared L2, fed longest shard first. The pool
/// simulates each *distinct* [`BatchKey`] exactly once — a batch's service
/// time does not depend on how many requests ride in it, which is the
/// entire economics of batching — and memoizes the outcome.
///
/// Host-side, [`simulate_all`](WorkerPool::simulate_all) fans the distinct
/// keys out over `threads` OS threads pulling from a channel work queue;
/// all threads share one [`TraceCache`], the one admission verified the
/// keys against. Host threading affects only how fast the simulations
/// run, never their results.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    engine: EngineConfig,
    sim: SimConfig,
    cores: usize,
    threads: usize,
    cache: Arc<TraceCache>,
}

impl WorkerPool {
    /// A pool whose workers run `engine` on `cores` simulator cores,
    /// driven by `threads` host threads, sharing `cache`.
    pub fn new(
        engine: EngineConfig,
        sim: SimConfig,
        cores: usize,
        threads: usize,
        cache: Arc<TraceCache>,
    ) -> Self {
        WorkerPool {
            engine,
            sim,
            cores: cores.max(1),
            threads: threads.max(1),
            cache,
        }
    }

    /// The virtual clock of this pool's workers (the simulated core
    /// clock).
    pub fn clock(&self) -> VirtualClock {
        VirtualClock::new(self.sim.core_ghz)
    }

    /// The shared trace cache.
    pub fn cache(&self) -> &Arc<TraceCache> {
        &self.cache
    }

    /// Simulates one batch key on one worker: unsharded on a single
    /// [`CoreSim`] when the worker has one core, sharded through
    /// [`MultiCoreSim`] (its shard set packed longest first) otherwise.
    pub fn simulate(&self, key: &BatchKey) -> SimOutcome {
        let (cycles, instructions) = if self.cores <= 1 {
            let mut stream = self.cache.stream(key.shape, &key.spec);
            let mut core = CoreSim::new(self.sim.clone(), self.engine.clone());
            let res = core.run_stream(&mut stream);
            (res.core_cycles, res.instructions)
        } else {
            let set = key.spec.shard_set(key.shape, self.cores);
            // Each worker's share of the host: phase-1 fan-out already
            // occupies `threads` host threads, so the per-key multi-core
            // replay gets the leftover budget (at least one). Results are
            // host-thread-independent either way — the per-core first-touch
            // summaries fold into the shared L2 in any order.
            let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            let host_budget = (avail / self.threads).max(1);
            let mut mc = MultiCoreSim::new(
                MultiCoreConfig::with_core(self.sim.clone(), self.cores)
                    .with_exec(ExecMode::ParallelHost(host_budget)),
                self.engine.clone(),
            );
            let res = mc.run_sharded(set.shards, set.reduction, SchedulerPolicy::Lpt);
            (res.core_cycles, res.instructions())
        };
        SimOutcome {
            cycles,
            instructions,
            service_us: self.clock().cycles_to_us(cycles),
        }
    }

    /// Simulates every key once, fanning out over the pool's host
    /// threads: keys flow through an [`mpsc`] channel acting as the work
    /// queue, workers pull until it drains, and outcomes flow back over a
    /// result channel. The returned map is complete — one entry per input
    /// key (duplicates collapse).
    pub fn simulate_all(&self, keys: &[BatchKey]) -> HashMap<BatchKey, SimOutcome> {
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<&BatchKey> = keys.iter().filter(|k| seen.insert(*k)).collect();
        let mut out: HashMap<BatchKey, SimOutcome> = HashMap::with_capacity(distinct.len());
        let threads = self.threads.min(distinct.len());
        if threads <= 1 {
            for key in distinct {
                let outcome = self.simulate(key);
                out.insert(key.clone(), outcome);
            }
            return out;
        }
        let (job_tx, job_rx) = mpsc::channel::<BatchKey>();
        let (res_tx, res_rx) = mpsc::channel::<(BatchKey, SimOutcome)>();
        for key in &distinct {
            job_tx.send((*key).clone()).expect("job queue open");
        }
        drop(job_tx);
        let jobs = Arc::new(Mutex::new(job_rx));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let jobs = Arc::clone(&jobs);
                let res_tx = res_tx.clone();
                scope.spawn(move || loop {
                    // Take the lock only to dequeue; simulate unlocked.
                    let job = jobs.lock().expect("job queue poisoned").try_recv();
                    match job {
                        Ok(key) => {
                            let outcome = self.simulate(&key);
                            if res_tx.send((key, outcome)).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                });
            }
            drop(res_tx);
            for (key, outcome) in res_rx {
                out.insert(key, outcome);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_key(m: usize) -> BatchKey {
        BatchKey {
            shape: GemmShape::new(m, 16, 128),
            spec: KernelSpec::tiled(SparseMode::Dense),
        }
    }

    #[test]
    fn clock_rounds_up_and_floors_at_one() {
        let clock = VirtualClock::new(2.0); // 2000 cycles / µs
        assert_eq!(clock.cycles_to_us(1), 1);
        assert_eq!(clock.cycles_to_us(2_000), 1);
        assert_eq!(clock.cycles_to_us(2_001), 2);
        assert_eq!(clock.cycles_to_us(10_000), 5);
    }

    fn pool(threads: usize) -> WorkerPool {
        WorkerPool::new(
            EngineConfig::rasa_dm(),
            SimConfig::default(),
            1,
            threads,
            TraceCache::shared(),
        )
    }

    #[test]
    fn simulate_all_covers_distinct_keys_once() {
        let p = pool(4);
        let keys = vec![dense_key(16), dense_key(32), dense_key(16)];
        let map = p.simulate_all(&keys);
        assert_eq!(map.len(), 2);
        assert!(map.values().all(|o| o.cycles > 0 && o.service_us > 0));
    }

    #[test]
    fn host_thread_count_does_not_change_outcomes() {
        let keys: Vec<BatchKey> = [16, 32, 48, 64].iter().map(|&m| dense_key(m)).collect();
        let serial = pool(1).simulate_all(&keys);
        let parallel = pool(4).simulate_all(&keys);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sharded_worker_is_no_slower_than_single_core() {
        let key = dense_key(64);
        let single = pool(1).simulate(&key);
        let quad = WorkerPool::new(
            EngineConfig::rasa_dm(),
            SimConfig::default(),
            4,
            1,
            TraceCache::shared(),
        )
        .simulate(&key);
        assert!(
            quad.cycles <= single.cycles,
            "4-core worker {} cycles vs 1-core {}",
            quad.cycles,
            single.cycles
        );
    }
}
