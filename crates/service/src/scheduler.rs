//! Request admission and micro-batched execution on a fixed worker pool.
//!
//! Three stages, all `std::thread` + `Mutex`/`Condvar` (no extra deps):
//!
//! 1. **Admission** — [`Scheduler::submit`] appends to a bounded queue;
//!    a full queue rejects immediately (the caller answers "overloaded")
//!    so a traffic spike degrades to fast failures instead of unbounded
//!    memory growth and ballooning latency.
//! 2. **Micro-batching** — a dispatcher thread drains up to `max_batch`
//!    admitted jobs at a time, hands them to the workers, and waits for
//!    the batch to finish before dispatching the next one. Queued jobs
//!    whose deadline already passed are **shed** at this point — their
//!    `on_shed` callback answers the caller without the job ever pinning
//!    a worker.
//! 3. **Workers** — a fixed pool executing jobs concurrently within the
//!    batch. A panicking job is contained and counted; the pool keeps
//!    running.
//!
//! The batch barrier costs a bounded amount of head-of-line blocking (at
//! most `max_batch` jobs wait for the slowest member of the current
//! batch). The server caps per-request cost (sample budget, paver time
//! budget, symexec depth) at admission, which bounds how slow the
//! slowest batch member can be. Persistence is not the scheduler's
//! business: the server's persist timer compacts the snapshot, and the
//! write-ahead log makes every factor insert durable.
//!
//! Jobs are opaque `FnOnce` closures; the scheduler knows nothing about
//! the wire protocol.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qcoral_failpoints::failpoint;
use qcoral_obs::{log, Counter, Gauge, Histogram, Registry};

/// How long the `worker.stall` failpoint holds a worker before its job
/// runs: chaos tests use it to keep a job in flight for a fixed time,
/// whatever the speed of the build and the machine.
const WORKER_STALL: Duration = Duration::from_millis(500);

/// An admitted unit of work.
pub type Job = Box<dyn FnOnce() + Send>;

/// Returned by [`Scheduler::submit`] when the admission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded;

/// Cumulative scheduler counters (see [`Scheduler::metrics`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerMetrics {
    /// Jobs a worker picked up and ran (including panicked ones).
    pub served: u64,
    /// Submissions rejected at admission (queue full or stopping).
    pub rejected: u64,
    /// Queued jobs shed by the dispatcher because their deadline had
    /// already passed before a worker was available.
    pub shed: u64,
    /// Jobs that panicked on a worker (contained; the pool survived).
    pub panicked: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
}

struct QueuedJob {
    job: Job,
    /// When the job entered the admission queue (feeds the queue-wait
    /// histogram at pickup; monotonic clock, never the RNG).
    enqueued_at: Instant,
    /// Shed the job (never run it) if this instant passes while queued.
    deadline: Option<Instant>,
    /// Runs on the dispatcher thread when the job is shed, so the caller
    /// still gets an answer. Runs outside the admission lock, but holds up
    /// dispatch while it runs.
    on_shed: Option<Job>,
}

struct Shared {
    /// Admission queue (bounded by `queue_cap`).
    admitted: Mutex<VecDeque<QueuedJob>>,
    admitted_cv: Condvar,
    /// Jobs of the in-flight batch, pulled by workers.
    ready: Mutex<VecDeque<Job>>,
    ready_cv: Condvar,
    /// Jobs of the in-flight batch not yet finished.
    inflight: Mutex<usize>,
    inflight_cv: Condvar,
    queue_cap: usize,
    max_batch: usize,
    /// Closes admission; the dispatcher exits once the queue is empty.
    stop: AtomicBool,
    /// Raised only after the dispatcher has exited, so idle workers keep
    /// serving until every admitted job has run.
    workers_stop: AtomicBool,
    // Per-instance `qcoral-obs` counters: the scheduler owns its exact
    // numbers (tests assert them per instance) and the server *attaches*
    // these handles to its registry via `register_metrics` — one
    // counting substrate, no parallel bookkeeping.
    served: Arc<Counter>,
    rejected: Arc<Counter>,
    shed: Arc<Counter>,
    panicked: Arc<Counter>,
    batches: Arc<Counter>,
    /// Jobs currently waiting in the admission queue (live gauge).
    queue_depth: Arc<Gauge>,
    /// Jobs of the current batch not yet finished (live gauge).
    inflight_gauge: Arc<Gauge>,
    /// Time jobs spent queued before dispatch (or shedding), µs.
    queue_wait_us: Arc<Histogram>,
    /// Batch sizes at dispatch.
    batch_occupancy: Arc<Histogram>,
}

/// The scheduler handle. Dropping it without [`Scheduler::shutdown`]
/// leaks the threads; the server always shuts it down explicitly.
pub struct Scheduler {
    shared: Arc<Shared>,
    /// Joinable thread handles; `None` after shutdown. Interior-mutable
    /// so a shared (`Arc`-held) scheduler can be shut down in place.
    threads: Mutex<Option<Threads>>,
}

struct Threads {
    dispatcher: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `workers` worker threads plus the dispatcher.
    pub fn start(workers: usize, queue_cap: usize, max_batch: usize) -> Scheduler {
        let shared = Arc::new(Shared {
            admitted: Mutex::new(VecDeque::new()),
            admitted_cv: Condvar::new(),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            inflight: Mutex::new(0),
            inflight_cv: Condvar::new(),
            queue_cap: queue_cap.max(1),
            max_batch: max_batch.max(1),
            stop: AtomicBool::new(false),
            workers_stop: AtomicBool::new(false),
            served: Counter::new(),
            rejected: Counter::new(),
            shed: Counter::new(),
            panicked: Counter::new(),
            batches: Counter::new(),
            queue_depth: Gauge::new(),
            inflight_gauge: Gauge::new(),
            queue_wait_us: Histogram::new(),
            batch_occupancy: Histogram::new(),
        });

        let worker_handles: Vec<JoinHandle<()>> = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qcoral-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("qcoral-dispatch".to_string())
                .spawn(move || dispatcher_loop(&shared))
                .expect("spawn dispatcher")
        };

        Scheduler {
            shared,
            threads: Mutex::new(Some(Threads {
                dispatcher,
                workers: worker_handles,
            })),
        }
    }

    /// Admits a job, or rejects it if the queue is at capacity.
    pub fn submit(&self, job: Job) -> Result<(), Overloaded> {
        self.submit_with(job, None, None)
    }

    /// [`Scheduler::submit`] with a queue deadline: if `deadline` passes
    /// before a worker picks the job up, the dispatcher sheds it —
    /// `on_shed` runs instead of `job`, so the caller still gets an
    /// answer without the stale work pinning a worker.
    pub fn submit_with(
        &self,
        job: Job,
        deadline: Option<Instant>,
        on_shed: Option<Job>,
    ) -> Result<(), Overloaded> {
        let mut q = self.shared.admitted.lock().expect("scheduler lock");
        if self.shared.stop.load(Ordering::Acquire) || q.len() >= self.shared.queue_cap {
            drop(q);
            self.shared.rejected.inc();
            return Err(Overloaded);
        }
        q.push_back(QueuedJob {
            job,
            enqueued_at: Instant::now(),
            deadline,
            on_shed,
        });
        self.shared.queue_depth.set(q.len() as i64);
        drop(q);
        self.shared.admitted_cv.notify_one();
        Ok(())
    }

    /// Cumulative counters since start.
    pub fn metrics(&self) -> SchedulerMetrics {
        SchedulerMetrics {
            served: self.shared.served.get(),
            rejected: self.shared.rejected.get(),
            shed: self.shared.shed.get(),
            panicked: self.shared.panicked.get(),
            batches: self.shared.batches.get(),
        }
    }

    /// Jobs currently waiting in the admission queue (live).
    pub fn queue_depth(&self) -> u64 {
        self.shared.queue_depth.get().max(0) as u64
    }

    /// Jobs of the in-flight batch not yet finished (live).
    pub fn inflight(&self) -> u64 {
        self.shared.inflight_gauge.get().max(0) as u64
    }

    /// Attaches this scheduler's counters, gauges and histograms to a
    /// metrics [`Registry`] under `qcoral_scheduler_*` names. The
    /// scheduler keeps owning the handles — per-instance exactness is
    /// untouched; the registry just renders them.
    pub fn register_metrics(&self, registry: &Registry) {
        let s = &self.shared;
        registry.register_counter(
            "qcoral_scheduler_served_total",
            "Jobs a worker picked up and ran (including panicked ones).",
            Arc::clone(&s.served),
        );
        registry.register_counter(
            "qcoral_scheduler_rejected_total",
            "Submissions rejected at admission (queue full or stopping).",
            Arc::clone(&s.rejected),
        );
        registry.register_counter(
            "qcoral_scheduler_shed_total",
            "Queued jobs shed because their deadline passed before dispatch.",
            Arc::clone(&s.shed),
        );
        registry.register_counter(
            "qcoral_scheduler_panicked_total",
            "Jobs that panicked on a worker (contained; the pool survived).",
            Arc::clone(&s.panicked),
        );
        registry.register_counter(
            "qcoral_scheduler_batches_total",
            "Micro-batches dispatched to the worker pool.",
            Arc::clone(&s.batches),
        );
        registry.register_gauge(
            "qcoral_scheduler_queue_depth",
            "Jobs currently waiting in the admission queue.",
            Arc::clone(&s.queue_depth),
        );
        registry.register_gauge(
            "qcoral_scheduler_inflight",
            "Jobs of the current micro-batch not yet finished.",
            Arc::clone(&s.inflight_gauge),
        );
        registry.register_histogram(
            "qcoral_scheduler_queue_wait_us",
            "Time jobs spent in the admission queue before dispatch, microseconds.",
            Arc::clone(&s.queue_wait_us),
        );
        registry.register_histogram(
            "qcoral_scheduler_batch_occupancy",
            "Micro-batch sizes at dispatch.",
            Arc::clone(&s.batch_occupancy),
        );
    }

    /// Drains already-admitted jobs, then stops and joins all threads.
    /// Idempotent; must not be called from a worker or dispatcher thread
    /// (it joins them).
    pub fn shutdown(&self) {
        let Some(threads) = self.threads.lock().expect("scheduler lock").take() else {
            return;
        };
        // Each flag is raised under the lock of the queue its threads
        // wait on: a thread between its stop check and its wait holds
        // that lock, so it is either before the check or already waiting
        // for the notify.
        {
            let _admitted = self.shared.admitted.lock().expect("scheduler lock");
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.admitted_cv.notify_all();
        // The dispatcher exits only once the admission queue is empty and
        // its last batch has finished, so every admitted job has run.
        let _ = threads.dispatcher.join();
        {
            let _ready = self.shared.ready.lock().expect("scheduler lock");
            self.shared.workers_stop.store(true, Ordering::Release);
        }
        self.shared.ready_cv.notify_all();
        for w in threads.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut ready = shared.ready.lock().expect("scheduler lock");
            loop {
                if let Some(job) = ready.pop_front() {
                    break job;
                }
                if shared.workers_stop.load(Ordering::Acquire) {
                    return;
                }
                ready = shared.ready_cv.wait(ready).expect("scheduler lock");
            }
        };
        // A panicking job must neither kill the worker nor skip the
        // inflight decrement — either would deadlock the dispatcher's
        // batch barrier and stall the whole pool.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if failpoint!("worker.job") {
                panic!("injected worker job panic");
            }
            if failpoint!("worker.stall") {
                std::thread::sleep(WORKER_STALL);
            }
            job();
        }));
        if outcome.is_err() {
            shared.panicked.inc();
            log::warn(
                "job_panicked",
                &[("detail", "contained; worker continues".to_string())],
            );
        }
        shared.served.inc();
        shared.inflight_gauge.sub(1);
        let mut inflight = shared.inflight.lock().expect("scheduler lock");
        *inflight -= 1;
        if *inflight == 0 {
            shared.inflight_cv.notify_all();
        }
    }
}

fn dispatcher_loop(shared: &Shared) {
    loop {
        // Collect the next micro-batch: whatever is admitted, capped —
        // shedding deadline-expired jobs along the way (they answer via
        // `on_shed` and never consume a batch slot or a worker).
        let mut batch: Vec<Job> = Vec::new();
        let mut shed: Vec<Job> = Vec::new();
        {
            let mut q = shared.admitted.lock().expect("scheduler lock");
            while q.is_empty() {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                q = shared.admitted_cv.wait(q).expect("scheduler lock");
            }
            while batch.len() < shared.max_batch {
                let Some(queued) = q.pop_front() else { break };
                let now = Instant::now();
                shared
                    .queue_wait_us
                    .record(now.duration_since(queued.enqueued_at).as_micros() as u64);
                if queued.deadline.is_some_and(|d| now >= d) {
                    shared.shed.inc();
                    shed.extend(queued.on_shed);
                } else {
                    batch.push(queued.job);
                }
            }
            shared.queue_depth.set(q.len() as i64);
        }
        // Shed callbacks answer their callers, possibly with a blocking
        // socket write, so they run after the admission lock is released:
        // a client that stopped reading must not stall every `submit`.
        for on_shed in shed {
            // Contained like a worker job: a panicking shed callback
            // must not kill dispatch.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(on_shed));
        }
        if batch.is_empty() {
            continue;
        }

        let n = batch.len();
        shared.batch_occupancy.record(n as u64);
        shared.inflight_gauge.set(n as i64);
        *shared.inflight.lock().expect("scheduler lock") = n;
        {
            let mut ready = shared.ready.lock().expect("scheduler lock");
            ready.extend(batch);
        }
        shared.ready_cv.notify_all();

        // Batch barrier: wait for the workers to finish everything.
        let mut inflight = shared.inflight.lock().expect("scheduler lock");
        while *inflight > 0 {
            inflight = shared.inflight_cv.wait(inflight).expect("scheduler lock");
        }
        drop(inflight);

        shared.batches.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_everything_and_batches() {
        let sched = Scheduler::start(2, 64, 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let done = Arc::clone(&done);
            sched
                .submit(Box::new(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }))
                .unwrap();
        }
        // Wait for completion, then stop.
        for _ in 0..200 {
            if done.load(Ordering::SeqCst) == 10 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 10);
        let m = sched.metrics();
        assert_eq!(m.served, 10);
        // Ten jobs in batches of at most `max_batch` = 4.
        assert!(
            (3..=10).contains(&m.batches),
            "batches within [3, 10]: {}",
            m.batches
        );
    }

    #[test]
    fn panicking_jobs_do_not_stall_the_pool() {
        let sched = Scheduler::start(1, 16, 2);
        sched.submit(Box::new(|| panic!("job blew up"))).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            sched
                .submit(Box::new(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }))
                .unwrap();
        }
        for _ in 0..200 {
            if done.load(Ordering::SeqCst) == 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(done.load(Ordering::SeqCst), 4, "pool stalled after a panic");
        let m = sched.metrics();
        assert_eq!(m.served, 5, "panicked job still counts as served");
        assert_eq!(m.panicked, 1, "panic counted");
        sched.shutdown();
    }

    #[test]
    fn admission_rejects_when_full() {
        // One worker blocked on a slow job, queue of 2: the 4th submit
        // must be rejected.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let sched = Scheduler::start(1, 2, 1);
        let g = Arc::clone(&gate);
        sched
            .submit(Box::new(move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }))
            .unwrap();
        // Give the dispatcher time to move the blocker to a worker.
        std::thread::sleep(Duration::from_millis(20));
        sched.submit(Box::new(|| {})).unwrap();
        sched.submit(Box::new(|| {})).unwrap();
        let r = sched.submit(Box::new(|| {}));
        assert_eq!(r, Err(Overloaded));
        assert_eq!(sched.metrics().rejected, 1, "one rejection counted");
        // Open the gate and drain.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        for _ in 0..200 {
            if sched.metrics().served == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sched.metrics().served, 3);
        sched.shutdown();
    }

    #[test]
    fn shed_callbacks_run_outside_the_admission_lock() {
        // A shed callback that blocks (the reply to a client that stopped
        // reading) must not hold up admission: another `submit` returns
        // while the callback is still waiting on its gate.
        let sched = Scheduler::start(1, 16, 4);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        sched
            .submit_with(
                Box::new(|| {}),
                Some(Instant::now() - Duration::from_millis(1)),
                Some(Box::new(move || {
                    entered_tx.send(()).unwrap();
                    let _ = gate_rx.recv();
                })),
            )
            .unwrap();
        entered_rx.recv().unwrap();
        let (ran_tx, ran_rx) = mpsc::channel();
        let admitted = std::thread::scope(|s| {
            let (done_tx, done_rx) = mpsc::channel();
            let sched = &sched;
            let job: Job = Box::new(move || ran_tx.send(()).unwrap());
            s.spawn(move || {
                let _ = done_tx.send(sched.submit(job));
            });
            let admitted = done_rx.recv_timeout(Duration::from_secs(1));
            gate_tx.send(()).unwrap();
            admitted
        });
        // Shut down once the admitted job has run, so the test checks
        // admission and nothing else.
        ran_rx.recv().unwrap();
        sched.shutdown();
        assert_eq!(admitted, Ok(Ok(())), "submit waited for a shed callback");
    }

    #[test]
    fn expired_queued_jobs_are_shed_not_run() {
        // Block the single worker so submissions sit in the queue past
        // their deadline.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let sched = Scheduler::start(1, 16, 4);
        let g = Arc::clone(&gate);
        sched
            .submit(Box::new(move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let ran = Arc::new(AtomicUsize::new(0));
        let shed_seen = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let ran = Arc::clone(&ran);
            let shed_seen = Arc::clone(&shed_seen);
            sched
                .submit_with(
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }),
                    Some(Instant::now() - Duration::from_millis(1)),
                    Some(Box::new(move || {
                        shed_seen.fetch_add(1, Ordering::SeqCst);
                    })),
                )
                .unwrap();
        }
        // A live job behind the expired ones still runs.
        let live = Arc::new(AtomicUsize::new(0));
        {
            let live = Arc::clone(&live);
            sched
                .submit_with(
                    Box::new(move || {
                        live.fetch_add(1, Ordering::SeqCst);
                    }),
                    Some(Instant::now() + Duration::from_secs(60)),
                    None,
                )
                .unwrap();
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        for _ in 0..200 {
            if live.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "expired jobs must not run");
        assert_eq!(shed_seen.load(Ordering::SeqCst), 3, "on_shed ran for each");
        assert_eq!(live.load(Ordering::SeqCst), 1, "live job survived shedding");
        let m = sched.metrics();
        assert_eq!(m.shed, 3);
        assert_eq!(m.served, 2, "blocker + live job");
    }

    #[test]
    fn shutdown_runs_jobs_admitted_before_it() {
        // One worker, batches of one: job A holds the worker on a gate
        // while job B waits in the admission queue behind it.
        let sched = Arc::new(Scheduler::start(1, 64, 1));
        let (started_tx, started_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        sched
            .submit(Box::new(move || {
                started_tx.send(()).unwrap();
                let _ = gate_rx.recv();
            }))
            .unwrap();
        started_rx.recv().unwrap();
        let ran = Arc::new(AtomicBool::new(false));
        let b_ran = Arc::clone(&ran);
        sched
            .submit(Box::new(move || b_ran.store(true, Ordering::SeqCst)))
            .unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let stopping = Arc::clone(&sched);
        let stopper = std::thread::spawn(move || {
            stopping.shutdown();
            let _ = done_tx.send(());
        });
        // Open the gate only once shutdown has closed admission, so B is
        // still queued when the stop is raised.
        while sched.submit(Box::new(|| {})).is_ok() {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate_tx.send(()).unwrap();
        assert!(
            done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "shutdown hung with an admitted job queued"
        );
        stopper.join().expect("shutdown thread panicked");
        assert!(
            ran.load(Ordering::SeqCst),
            "job admitted before shutdown never ran"
        );
    }
}
