//! A fixed-size worker-thread pool over `std::sync::mpsc`.
//!
//! Jobs are dealt FIFO to the first free worker.  Dropping the pool is the
//! graceful-shutdown path: the channel sender is dropped first, every
//! already-queued job still runs to completion, and only then do the
//! workers observe the disconnect and exit — which is exactly the "drain
//! in-flight work" semantics `chora serve` promises on shutdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads consuming a shared FIFO job queue.
pub struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    sender: Option<mpsc::Sender<Job>>,
    panics: Arc<AtomicU64>,
}

impl ThreadPool {
    /// Spawns `size.max(1)` workers.
    pub fn new(size: usize) -> ThreadPool {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let panics = Arc::new(AtomicU64::new(0));
        let workers = (0..size.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("chora-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the receive, not the job.
                        let job = match receiver.lock().expect("pool queue lock").recv() {
                            Ok(job) => job,
                            Err(_) => break, // Sender dropped: queue drained.
                        };
                        // A panicking job must not take the worker down with
                        // it — the connection is lost, the pool survives.
                        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                            panics.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool {
            workers,
            sender: Some(sender),
            panics,
        }
    }

    /// Queues a job; it runs on the first free worker.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(sender) = &self.sender {
            let _ = sender.send(Box::new(job));
        }
    }

    /// How many jobs have panicked since the pool started.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

impl Drop for ThreadPool {
    /// Graceful drain: close the queue, then wait for every worker to
    /// finish the jobs already accepted.
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn all_queued_jobs_run_before_drop_returns() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(3);
        for _ in 0..20 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 20, "drop must drain the queue");
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("job panic"));
        let d = Arc::clone(&done);
        let (ran, signal) = mpsc::channel();
        pool.execute(move || {
            d.fetch_add(1, Ordering::SeqCst);
            let _ = ran.send(());
        });
        // The single worker runs the jobs in order, so once the second has
        // signalled, the first one's panic has been counted.
        signal
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the job queued after a panic runs");
        let panics = pool.panics();
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(panics, 1);
    }
}
