//! Reusable worker pools for ownership-passing parallel work.
//!
//! The key-space sharded engine ([`crate::sharded::ShardedDependencyGraph`]) decomposes its
//! arrival and formation work into per-shard pieces that touch disjoint [`DependencyGraph`]s:
//! node-copy insertion for a border transaction, the per-shard pending topo sorts behind the
//! k-way formation merge, per-shard ww-chain restoration, and age-based pruning. This module
//! provides the thread pool those pieces fan out on — and, since the parallel commit
//! scheduler (`fabricsharp_core::scheduler`), the generic [`WorkPool`] it is built on, which
//! ships arbitrary `Send` resources to workers by value.
//!
//! # Design
//!
//! Jobs transfer **ownership** of their resource instead of borrowing it: the coordinator
//! moves each resource (a shard `DependencyGraph`, a wave's transaction chunk, a shard
//! `MultiVersionStore`) out of its slot, ships it to a worker together with a boxed closure
//! and a per-call result channel, and re-installs it when the worker hands it back. That
//! keeps every closure `'static` (no scoped-lifetime unsafety), makes concurrent use of one
//! pool by independent callers sound (each call collects on its own channel), and costs only
//! a shallow struct move per job.
//!
//! # Determinism
//!
//! Workers race freely, but [`WorkPool::run`] blocks until *every* job of the batch has
//! reported back and re-assembles results by batch position — the scheduling order is
//! invisible to the caller. Combined with the jobs operating on disjoint resources, a
//! parallel batch is observably identical to running the same closures sequentially in any
//! order, which is the foundation of both the `W`-independence ledger guarantee
//! (`tests/parallel_formation_determinism.rs`) and the `E`-independence commit guarantee
//! (`tests/scheduler_determinism.rs`).
//!
//! A worker that panics (a bug in a job closure) poisons the batch's result channel on its
//! unwind path, so the caller fails fast instead of deadlocking — the same contract as the
//! pipeline stage executor in `fabricsharp_core::pipeline`.

use crate::graph::DependencyGraph;
use crossbeam::channel::{unbounded, Receiver, Sender};
use eov_common::txn::TxnId;
use std::thread::JoinHandle;

/// A unit of work for a [`WorkPool`]: runs against the resource it was shipped with, returns
/// an outcome.
pub type PoolJob<R, O> = Box<dyn FnOnce(&mut R) -> O + Send + 'static>;

/// One queued job: the resource it owns for the duration, the work, and where to report back.
struct JobMsg<R, O> {
    /// Position in the caller's batch (results are re-assembled by this tag).
    tag: usize,
    resource: R,
    work: PoolJob<R, O>,
    done: Sender<DoneMsg<R, O>>,
}

enum DoneMsg<R, O> {
    Done {
        tag: usize,
        // Boxed so the rare Panicked variant does not inflate every channel slot to the full
        // (stack-moved) resource size.
        resource: Box<R>,
        outcome: O,
    },
    /// Sent from a worker's unwind path: the job closure panicked. The resource it held is
    /// lost, but the caller is about to panic anyway — this only exists so it panics
    /// *promptly* instead of blocking on a result that will never arrive.
    Panicked(usize),
}

/// Drop guard armed while a job runs: if the worker unwinds, the batch's caller is notified.
struct PanicNotice<R, O> {
    tag: usize,
    done: Sender<DoneMsg<R, O>>,
    armed: bool,
}

impl<R, O> Drop for PanicNotice<R, O> {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.done.send(DoneMsg::Panicked(self.tag));
        }
    }
}

/// A pool of worker threads executing [`PoolJob`]s on resources shipped by value.
#[derive(Debug)]
pub struct WorkPool<R, O> {
    jobs: Option<Sender<JobMsg<R, O>>>,
    workers: Vec<JoinHandle<()>>,
}

impl<R: Send + 'static, O: Send + 'static> WorkPool<R, O> {
    /// Spawns `threads` workers (clamped to at least one), named `{name}-{i}`.
    pub fn with_name(threads: usize, name: &str) -> Self {
        let threads = threads.max(1);
        let (job_tx, job_rx) = unbounded::<JobMsg<R, O>>();
        let workers = (0..threads)
            .map(|i| {
                let rx: Receiver<JobMsg<R, O>> = job_rx.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Ok(JobMsg {
                            tag,
                            mut resource,
                            work,
                            done,
                        }) = rx.recv()
                        {
                            let mut notice = PanicNotice {
                                tag,
                                done: done.clone(),
                                armed: true,
                            };
                            let outcome = work(&mut resource);
                            notice.armed = false;
                            let _ = done.send(DoneMsg::Done {
                                tag,
                                resource: Box::new(resource),
                                outcome,
                            });
                        }
                    })
                    .expect("spawning a pool worker")
            })
            .collect();
        WorkPool {
            jobs: Some(job_tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs a batch of jobs to completion and returns `(resource, outcome)` per batch
    /// position, in batch order. Blocks until every job has reported back.
    ///
    /// # Panics
    ///
    /// Panics if any job closure panicked on its worker — immediately for the batch that
    /// contained the bug, and loudly ("poisoned") for any later batch: a panicking job kills
    /// its worker for good and may have left the caller's moved-out resources replaced by
    /// empty placeholders, so continuing after catching the unwind must fail, not silently
    /// compute against empty resources.
    pub fn run(&self, batch: Vec<(R, PoolJob<R, O>)>) -> Vec<(R, O)> {
        if self.workers.iter().any(|w| w.is_finished()) {
            panic!("worker pool poisoned: a worker died in an earlier batch (job panic)");
        }
        let expected = batch.len();
        let (done_tx, done_rx) = unbounded::<DoneMsg<R, O>>();
        let jobs = self.jobs.as_ref().expect("pool not shut down");
        for (tag, (resource, work)) in batch.into_iter().enumerate() {
            let msg = JobMsg {
                tag,
                resource,
                work,
                done: done_tx.clone(),
            };
            if jobs.send(msg).is_err() {
                unreachable!("the job channel never closes while the pool lives");
            }
        }
        drop(done_tx);

        let mut slots: Vec<Option<(R, O)>> = (0..expected).map(|_| None).collect();
        for _ in 0..expected {
            match done_rx.recv() {
                Ok(DoneMsg::Done {
                    tag,
                    resource,
                    outcome,
                }) => {
                    debug_assert!(slots[tag].is_none(), "duplicate result for tag {tag}");
                    slots[tag] = Some((*resource, outcome));
                }
                Ok(DoneMsg::Panicked(tag)) => {
                    panic!("pool worker panicked while running batch job {tag}")
                }
                Err(_) => panic!("worker pool shut down mid-batch"),
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every tag reported exactly once"))
            .collect()
    }
}

impl<R, O> Drop for WorkPool<R, O> {
    fn drop(&mut self) {
        // Closing the job channel drains and parks every worker out of its loop; join so
        // tests and short-lived controllers do not leak threads.
        self.jobs.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// What a per-shard job returns to the coordinator.
#[derive(Debug)]
pub enum ShardOutcome {
    /// Nothing beyond the mutated graph (edge wiring, ww restoration).
    Unit,
    /// A per-shard topological order of that shard's pending transactions.
    Order(Vec<TxnId>),
    /// The transactions pruned from that shard.
    Pruned(Vec<TxnId>),
}

/// A per-shard unit of work: runs against the shard's graph, returns an outcome.
pub type ShardJob = PoolJob<DependencyGraph, ShardOutcome>;

/// A pool of `W` worker threads executing [`ShardJob`]s on shard graphs shipped by value —
/// the dependency-graph specialisation of [`WorkPool`].
#[derive(Debug)]
pub struct ShardPool {
    inner: WorkPool<DependencyGraph, ShardOutcome>,
}

impl ShardPool {
    /// Spawns `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        ShardPool {
            inner: WorkPool::with_name(threads, "depgraph-shard-worker"),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.threads()
    }

    /// Runs a batch of per-shard jobs to completion and returns `(graph, outcome)` per batch
    /// position, in batch order. Blocks until every job has reported back. See
    /// [`WorkPool::run`] for the panic contract.
    pub fn run(
        &self,
        batch: Vec<(DependencyGraph, ShardJob)>,
    ) -> Vec<(DependencyGraph, ShardOutcome)> {
        self.inner.run(batch)
    }

    #[cfg(test)]
    fn worker_finished(&self, index: usize) -> bool {
        self.inner.workers[index].is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PendingTxnSpec;
    use eov_common::config::CcConfig;
    use eov_common::version::SeqNo;

    fn graph_with(ids: std::ops::Range<u64>) -> DependencyGraph {
        let mut g = DependencyGraph::new(CcConfig::default());
        for id in ids {
            g.insert_pending(
                PendingTxnSpec {
                    id: TxnId(id),
                    start_ts: SeqNo::snapshot_after(0),
                },
                &[],
                &[],
                1,
            );
        }
        g
    }

    #[test]
    fn batch_results_come_back_in_batch_order() {
        let pool = ShardPool::new(3);
        assert_eq!(pool.threads(), 3);
        let batch: Vec<(DependencyGraph, ShardJob)> = (0..6u64)
            .map(|i| {
                let g = graph_with(i * 10..i * 10 + i + 1);
                let job: ShardJob =
                    Box::new(move |g: &mut DependencyGraph| ShardOutcome::Order(g.pending_ids()));
                (g, job)
            })
            .collect();
        let results = pool.run(batch);
        assert_eq!(results.len(), 6);
        for (i, (graph, outcome)) in results.iter().enumerate() {
            let i = i as u64;
            assert_eq!(graph.len(), i as usize + 1, "graph {i} came back intact");
            match outcome {
                ShardOutcome::Order(ids) => {
                    let expected: Vec<TxnId> = (i * 10..i * 10 + i + 1).map(TxnId).collect();
                    assert_eq!(*ids, expected, "outcome {i}");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn jobs_mutate_the_graphs_they_own() {
        let pool = ShardPool::new(2);
        let batch: Vec<(DependencyGraph, ShardJob)> = (0..4u64)
            .map(|i| {
                let g = graph_with(0..3);
                let job: ShardJob = Box::new(move |g: &mut DependencyGraph| {
                    g.mark_committed(TxnId(i % 3), SeqNo::new(1, 1));
                    ShardOutcome::Unit
                });
                (g, job)
            })
            .collect();
        for (i, (graph, _)) in pool.run(batch).into_iter().enumerate() {
            assert_eq!(graph.pending_len(), 2, "job {i} committed one of three");
        }
    }

    #[test]
    fn sequential_batches_reuse_the_same_workers() {
        let pool = ShardPool::new(1);
        for round in 0..8u64 {
            let batch: Vec<(DependencyGraph, ShardJob)> = vec![(
                graph_with(round..round + 1),
                Box::new(|g: &mut DependencyGraph| ShardOutcome::Pruned(g.pending_ids())),
            )];
            let mut results = pool.run(batch);
            let (_, outcome) = results.pop().unwrap();
            match outcome {
                ShardOutcome::Pruned(ids) => assert_eq!(ids, vec![TxnId(round)]),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    /// A caught job panic must not allow silent reuse: the worker is dead and the caller's
    /// shard graphs may have been lost mid-move, so the next batch fails loudly instead of
    /// computing against empty placeholders.
    #[test]
    fn a_pool_that_swallowed_a_panic_is_poisoned_for_later_batches() {
        let pool = ShardPool::new(1);
        let bad: Vec<(DependencyGraph, ShardJob)> = vec![(
            graph_with(0..1),
            Box::new(|_: &mut DependencyGraph| panic!("buggy job")),
        )];
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(bad)));
        assert!(first.is_err(), "the offending batch itself panics");
        // The dead worker has sent its unwind notice; give its thread a moment to finish so
        // the liveness check observes it deterministically.
        while !pool.worker_finished(0) {
            std::thread::yield_now();
        }
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(vec![(
                graph_with(0..1),
                Box::new(|g: &mut DependencyGraph| ShardOutcome::Order(g.pending_ids()))
                    as ShardJob,
            )])
        }));
        let err = again.expect_err("a poisoned pool must refuse further batches");
        let message = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("poisoned"),
            "expected a poisoned-pool panic, got: {message}"
        );
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn a_panicking_job_fails_the_batch_fast() {
        let pool = ShardPool::new(2);
        let batch: Vec<(DependencyGraph, ShardJob)> = vec![
            (
                graph_with(0..1),
                Box::new(|_: &mut DependencyGraph| panic!("buggy job")),
            ),
            (
                graph_with(1..2),
                Box::new(|_: &mut DependencyGraph| ShardOutcome::Unit),
            ),
        ];
        let _ = pool.run(batch);
    }

    /// The generic pool works with non-graph resources — the shape the commit scheduler
    /// relies on (shipping transaction chunks / shard stores by value).
    #[test]
    fn generic_pool_round_trips_arbitrary_resources() {
        let pool: WorkPool<Vec<u64>, u64> = WorkPool::with_name(2, "test-worker");
        #[allow(clippy::type_complexity)]
        let batch: Vec<(Vec<u64>, PoolJob<Vec<u64>, u64>)> = (0..5u64)
            .map(|i| {
                let resource: Vec<u64> = (0..=i).collect();
                let job: PoolJob<Vec<u64>, u64> = Box::new(move |v: &mut Vec<u64>| {
                    v.push(100 + i);
                    v.iter().sum()
                });
                (resource, job)
            })
            .collect();
        for (i, (resource, sum)) in pool.run(batch).into_iter().enumerate() {
            let i = i as u64;
            assert_eq!(*resource.last().unwrap(), 100 + i);
            assert_eq!(sum, (0..=i).sum::<u64>() + 100 + i);
        }
    }
}
