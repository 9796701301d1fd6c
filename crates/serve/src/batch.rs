//! The batcher: coalesces same-key requests inside a time/size window.

/// Batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// How long (virtual µs) a batch stays open after its first request
    /// before it is closed and dispatched. `0` coalesces only requests
    /// arriving on the same virtual-clock tick.
    pub window_us: u64,
    /// Maximum requests per batch; a batch reaching this closes
    /// immediately and later same-key arrivals open a fresh batch
    /// (overflow *splits*, it never drops).
    pub max_batch: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            window_us: 200,
            max_batch: 8,
        }
    }
}

impl BatcherConfig {
    /// Batching disabled: every request is its own batch of one.
    pub fn off() -> Self {
        BatcherConfig {
            window_us: 0,
            max_batch: 1,
        }
    }
}

/// One batch of same-key requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The shared execution key, as the caller's interned key id (the
    /// server numbers its distinct [`BatchKey`](crate::BatchKey)s `0..`).
    pub key: usize,
    /// Indices (caller-defined) of the member requests, in arrival order.
    pub members: Vec<usize>,
    /// Virtual time the batch opened (first member's arrival).
    pub opened_us: u64,
    /// Virtual time the batch closed, once it has.
    pub closed_us: Option<u64>,
}

impl Batch {
    /// Number of member requests.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the batch has no members (never true for batches the
    /// [`Batcher`] hands out, but part of the container contract).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// What [`Batcher::add`] did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Joined the already-open batch `batch`; its close timer is
    /// unchanged.
    Joined {
        /// Index of the joined batch.
        batch: usize,
    },
    /// Opened a new batch; the caller must close it at `close_at_us`
    /// unless it fills first.
    Opened {
        /// Index of the new batch.
        batch: usize,
        /// Virtual deadline for [`Batcher::close`].
        close_at_us: u64,
    },
    /// The request filled the batch to `max_batch`; the batch closed
    /// immediately and is ready to dispatch.
    Filled {
        /// Index of the now-closed batch.
        batch: usize,
    },
}

impl Admit {
    /// The batch index, whichever way the request was admitted.
    pub fn batch(self) -> usize {
        match self {
            Admit::Joined { batch } | Admit::Opened { batch, .. } | Admit::Filled { batch } => {
                batch
            }
        }
    }
}

/// Coalesces requests that share a key within a time/size window so one
/// simulated execution serves many requests.
///
/// Keys are small interned ids (the server numbers its distinct
/// [`BatchKey`](crate::BatchKey)s in order of first appearance), so no key
/// is cloned or hashed per batch. The batcher is a passive state machine
/// on the virtual clock: the event loop calls [`add`](Batcher::add) at
/// each arrival and [`close`](Batcher::close) when a window expires, and
/// dispatches batches as they close. At most one batch per key is open at
/// a time.
#[derive(Debug, Default)]
pub struct Batcher {
    cfg: BatcherConfig,
    batches: Vec<Batch>,
    /// The open batch of each key id, if any.
    open: Vec<Option<usize>>,
}

impl Batcher {
    /// A batcher with the given policy.
    pub fn new(cfg: BatcherConfig) -> Self {
        Batcher {
            cfg,
            batches: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> BatcherConfig {
        self.cfg
    }

    /// Admits request `member` (an opaque caller index) with key id `key`
    /// at virtual time `now_us`. See [`Admit`] for the caller's
    /// obligations. Ids should be dense from 0: the batcher keeps one
    /// open-batch slot per id up to the largest it has seen.
    pub fn add(&mut self, key: usize, member: usize, now_us: u64) -> Admit {
        let max_batch = self.cfg.max_batch.max(1);
        if key >= self.open.len() {
            self.open.resize(key + 1, None);
        }
        if let Some(idx) = self.open[key] {
            let batch = &mut self.batches[idx];
            batch.members.push(member);
            if batch.len() >= max_batch {
                batch.closed_us = Some(now_us);
                self.open[key] = None;
                return Admit::Filled { batch: idx };
            }
            return Admit::Joined { batch: idx };
        }
        let idx = self.batches.len();
        self.batches.push(Batch {
            key,
            members: vec![member],
            opened_us: now_us,
            closed_us: None,
        });
        if max_batch == 1 {
            self.batches[idx].closed_us = Some(now_us);
            return Admit::Filled { batch: idx };
        }
        self.open[key] = Some(idx);
        Admit::Opened {
            batch: idx,
            close_at_us: now_us + self.cfg.window_us,
        }
    }

    /// Closes batch `batch` at `now_us` because its window expired.
    /// Returns `false` (a stale timer) if it already closed by filling;
    /// the caller dispatches only on `true`.
    pub fn close(&mut self, batch: usize, now_us: u64) -> bool {
        let b = &mut self.batches[batch];
        if b.closed_us.is_some() {
            return false;
        }
        b.closed_us = Some(now_us);
        self.open[b.key] = None;
        true
    }

    /// The batch at `idx`.
    pub fn batch(&self, idx: usize) -> &Batch {
        &self.batches[idx]
    }

    /// All batches opened so far, in open order.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two interned key ids; the batcher never looks behind them.
    const KEY: usize = 0;
    const OTHER_KEY: usize = 1;

    #[test]
    fn single_request_opens_then_closes_on_window() {
        let mut b = Batcher::new(BatcherConfig {
            window_us: 100,
            max_batch: 4,
        });
        let admit = b.add(KEY, 0, 50);
        assert_eq!(
            admit,
            Admit::Opened {
                batch: 0,
                close_at_us: 150
            }
        );
        assert!(b.close(0, 150));
        assert_eq!(b.batch(0).members, vec![0]);
        assert_eq!(b.batch(0).closed_us, Some(150));
    }

    #[test]
    fn empty_window_coalesces_same_tick_only() {
        // window_us = 0: the close deadline equals the open tick, so only
        // arrivals on that same tick can join.
        let mut b = Batcher::new(BatcherConfig {
            window_us: 0,
            max_batch: 8,
        });
        let Admit::Opened { batch, close_at_us } = b.add(KEY, 0, 10) else {
            panic!("first add must open");
        };
        assert_eq!(close_at_us, 10);
        assert_eq!(b.add(KEY, 1, 10), Admit::Joined { batch });
        assert!(b.close(batch, 10));
        // A later arrival opens a fresh batch.
        let next = b.add(KEY, 2, 11);
        assert!(matches!(next, Admit::Opened { batch: 1, .. }), "{next:?}");
        assert_eq!(b.batch(0).len(), 2);
    }

    #[test]
    fn overflow_splits_into_a_new_batch() {
        let mut b = Batcher::new(BatcherConfig {
            window_us: 100,
            max_batch: 2,
        });
        assert!(matches!(b.add(KEY, 0, 0), Admit::Opened { .. }));
        assert_eq!(b.add(KEY, 1, 0), Admit::Filled { batch: 0 });
        // Third same-key request: the filled batch is gone, a new one opens.
        assert!(matches!(b.add(KEY, 2, 0), Admit::Opened { batch: 1, .. }));
        assert_eq!(b.batch(0).members, vec![0, 1]);
        assert_eq!(b.batch(1).members, vec![2]);
    }

    #[test]
    fn distinct_keys_never_share_a_batch() {
        let mut b = Batcher::new(BatcherConfig::default());
        let a = b.add(KEY, 0, 0).batch();
        let c = b.add(OTHER_KEY, 1, 0).batch();
        assert_ne!(a, c);
    }

    #[test]
    fn stale_close_after_fill_is_ignored() {
        let mut b = Batcher::new(BatcherConfig {
            window_us: 100,
            max_batch: 1,
        });
        assert_eq!(b.add(KEY, 0, 0), Admit::Filled { batch: 0 });
        assert!(!b.close(0, 100), "close after fill must be a no-op");
    }

    #[test]
    fn batching_off_makes_singleton_batches() {
        let mut b = Batcher::new(BatcherConfig::off());
        for i in 0..3 {
            assert_eq!(b.add(KEY, i, 0), Admit::Filled { batch: i });
        }
        assert!(b.batches().iter().all(|batch| batch.len() == 1));
    }
}
