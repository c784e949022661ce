//! A worker pool for batch scheduling.
//!
//! The pool runs a fixed-size set of workers that pull job indices from a
//! shared atomic counter — self-balancing without channels or work stealing,
//! and safe to use with borrowed job data because the workers are scoped.
//! The workers themselves come from the conversion stack's one fan-out,
//! [`sparse_conv::partition::fork_join`]: one worker runs on the calling
//! thread, and a job that panics costs its own result, not the process.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use sparse_conv::partition::{fork_join, machine_threads};
use sparse_conv::ConvertError;

/// A fixed-width pool of scoped worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine ([`machine_threads`]).
    pub fn machine_sized() -> Self {
        WorkerPool::new(machine_threads())
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(0..count)` across the pool and returns the results in job
    /// order. Jobs are claimed dynamically, so cheap jobs do not stall
    /// behind expensive ones assigned to the same worker.
    ///
    /// With one worker (or one job) everything runs on the calling thread.
    /// A job that panics on a worker thread takes that worker with it; the
    /// other workers claim the remaining jobs, and every job left without a
    /// result reports [`ConvertError::WorkerPanicked`].
    pub fn run<T, F>(&self, count: usize, job: F) -> Vec<Result<T, ConvertError>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(count);
        let next = AtomicUsize::new(0);
        // Results land in their slot as they finish, so a worker that dies
        // later loses only the job it died in. Each lock guards one store.
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let died = fork_join("pool.run", "pool.worker", (0..workers).collect(), |_, _| {
            loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= count {
                    break;
                }
                let value = job(idx);
                *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            }
        })
        .err();
        slots
            .into_iter()
            .map(|slot| {
                let value = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                value.ok_or_else(|| {
                    died.clone()
                        .expect("every job is claimed unless a worker died")
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run(32, |i| i * i);
        assert_eq!(out, (0..32).map(|i| Ok(i * i)).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_and_empty_batches() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(3, |i| i + 1), vec![Ok(1), Ok(2), Ok(3)]);
        assert!(pool.run(0, |i| i).is_empty());
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert!(WorkerPool::machine_sized().threads() >= 1);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let pool = WorkerPool::new(16);
        assert_eq!(pool.run(2, |i| i), vec![Ok(0), Ok(1)]);
    }

    #[test]
    fn a_panicking_job_costs_only_its_own_result() {
        let pool = WorkerPool::new(3);
        let out = pool.run(12, |i| {
            if i == 5 {
                panic!("job {i} dies (expected by this test)");
            }
            i
        });
        for (i, result) in out.iter().enumerate() {
            if i == 5 {
                assert_eq!(
                    result,
                    &Err(ConvertError::WorkerPanicked { phase: "pool.run" })
                );
            } else {
                assert_eq!(result, &Ok(i), "the other workers finished job {i}");
            }
        }
    }
}
