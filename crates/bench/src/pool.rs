//! A small hand-rolled thread pool for the experiment driver, with
//! **two-level scheduling**: the driver submits experiments as *main
//! tasks*, and a running experiment may fan its simulations out as
//! *subtasks* onto the same workers via [`run_subtasks`], so one big
//! experiment saturates every core instead of serializing behind the
//! driver-level parallelism.
//!
//! The container this project builds in has no route to a crates
//! registry, so instead of `rayon` this is a couple hundred lines of
//! `std`. Each [`run_tasks`] call owns one queue, and nothing outlives
//! the call:
//!
//! * **Main tasks** are taken in submission order from one shared
//!   cursor, a locked iterator that nothing ever waits on.
//! * **Subtasks** go into the queue of the pool whose worker submitted
//!   them. Workers take subtasks before main tasks (a queued simulation
//!   is always on some running experiment's critical path, while a main
//!   task only *starts* a new experiment), and the submitting worker
//!   helps run the queue while it waits for its batch. On a thread that
//!   belongs to no pool, [`run_subtasks`] runs its batch inline, so unit
//!   tests and examples need no special case.
//! * A worker left without a main task may not exit while any main task
//!   still runs, since that task can still submit subtasks. It runs
//!   subtasks until the last main task completes.
//!
//! All waiting goes through one mutex and one condvar. The mutex guards
//! the subtask queue and the count of unfinished main tasks; the
//! condvar, signalled with the mutex held, wakes every waiter: an idle
//! worker, or a submitter waiting for its batch. Each re-checks its
//! condition under the mutex, so no wakeup is lost and nothing polls.
//!
//! Determinism note: the pool imposes no ordering on task *execution*,
//! so anything a task touches must be task-private. Both levels deliver
//! results to their submitter in **submission order** (main tasks via a
//! channel consumed on the calling thread; subtasks via index-addressed
//! slots), and each subtask's captured output is replayed into the
//! submitting thread's capture in submission order, so a parallel run is
//! byte-identical to a serial one.

use crate::report;
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A unit of pool work.
type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// An enqueued subtask, already wrapped so it delivers its own result.
type Subtask = Box<dyn FnOnce() + Send + 'static>;

/// Locks `m`, recovering from a poisoned lock: pool tasks are run under
/// `catch_unwind`, so if a panic does escape while a lock is held the
/// protected data only ever holds plain jobs and counters and remains
/// structurally valid.
fn lock<'a, T: ?Sized>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The subtask queue one [`run_tasks`] call shares with its workers.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled, with `state` locked, when subtasks are queued, when a
    /// subtask finishes and when the last main task completes.
    changed: Condvar,
}

struct PoolState {
    subtasks: VecDeque<Subtask>,
    /// Main tasks not yet *completed* (not merely not yet started).
    unfinished: usize,
}

thread_local! {
    /// The pool this thread works for: set on [`run_tasks`]'s workers,
    /// `None` everywhere else.
    static POOL: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
}

impl Pool {
    /// Runs queued subtasks until `done` holds, blocking on the condvar
    /// while the queue is empty. `done` is evaluated with the lock held,
    /// and every change it can observe is made under the lock and then
    /// signalled, so the wait cannot miss the change it waits for.
    fn help_until(&self, mut done: impl FnMut(&PoolState) -> bool) {
        let mut state = lock(&self.state);
        while !done(&state) {
            match state.subtasks.pop_front() {
                Some(job) => {
                    drop(state);
                    job();
                    state = lock(&self.state);
                    // The job's submitter may be waiting for exactly
                    // this result.
                    self.changed.notify_all();
                }
                None => {
                    state = self
                        .changed
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// Runs `tasks` on `jobs` worker threads, calling `on_complete(index,
/// &result)` on the **calling thread** as each task finishes (in
/// completion order). Returns the results in submission order; an entry
/// is `None` only if a panic escaped its task closure, and such a panic
/// neither stops the other tasks nor keeps `run_tasks` from returning.
///
/// Starts `jobs.max(1)` workers even when there are fewer tasks: a
/// worker left without a main task runs the subtasks the others fan out
/// through [`run_subtasks`], so a single experiment still uses every
/// worker. It exits once every main task has completed.
pub fn run_tasks<'env, T, F>(
    jobs: usize,
    tasks: Vec<Task<'env, T>>,
    mut on_complete: F,
) -> Vec<Option<T>>
where
    T: Send + 'env,
    F: FnMut(usize, &T),
{
    let n = tasks.len();
    let pool = Arc::new(Pool {
        state: Mutex::new(PoolState {
            subtasks: VecDeque::new(),
            unfinished: n,
        }),
        changed: Condvar::new(),
    });
    let mains = Mutex::new(tasks.into_iter().enumerate());
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, T)>();

    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            let (pool, mains, tx) = (Arc::clone(&pool), &mains, tx.clone());
            scope.spawn(move || {
                POOL.with(|handle| *handle.borrow_mut() = Some(Arc::clone(&pool)));
                loop {
                    pool.help_until(|state| state.subtasks.is_empty());
                    let next = lock(mains).next();
                    let Some((i, task)) = next else { break };
                    // A panic that escapes the task must not take the
                    // worker with it: the task still counts as finished,
                    // or the other workers would wait for it forever.
                    let result = catch_unwind(AssertUnwindSafe(task));
                    let mut state = lock(&pool.state);
                    state.unfinished -= 1;
                    if state.unfinished == 0 {
                        pool.changed.notify_all();
                    }
                    drop(state);
                    // `rx` outlives every worker, so the send cannot fail.
                    // A panicked task sends nothing; its entry stays `None`.
                    if let Ok(result) = result {
                        let _ = tx.send((i, result));
                    }
                }
                pool.help_until(|state| state.unfinished == 0);
            });
        }
        drop(tx);
        // Single consumer: every completion is reported from this thread,
        // so callers get serialized output for free. The channel closes
        // once every worker has exited.
        while let Ok((i, v)) = rx.recv() {
            on_complete(i, &v);
            results[i] = Some(v);
        }
    });
    results
}

/// Result of one subtask: its value (or escaped panic payload) and
/// everything it printed through the output capture.
type SubtaskResult<T> = (Result<T, Box<dyn Any + Send>>, String);

/// Runs `tasks` as pool subtasks and returns their results in submission
/// order, blocking until all complete. Safe to call from anywhere:
///
/// * On a pool worker (the normal case — an experiment fanning out its
///   simulations), the tasks go into that pool's queue, where **every**
///   worker of the pool can pick them up, and the calling worker helps
///   run the queue while it waits.
/// * On any other thread, the calling thread runs the batch itself, in
///   order.
///
/// Each task's captured output (`out!`/`outln!`, replayed sim
/// diagnostics) is re-emitted into the *calling* thread's capture in
/// submission order, regardless of which worker ran it — parallel
/// fan-out stays byte-identical to a serial run.
///
/// Subtasks must not call [`run_subtasks`] themselves (single-level
/// nesting keeps worker stacks and the deadlock argument simple; the
/// simulation service never needs more).
///
/// # Panics
///
/// If a task panics, the panic is re-raised on the calling thread once
/// the whole batch has finished (first panicking task in submission
/// order wins), so an experiment's `catch_unwind` sees the original
/// payload and sibling tasks are never torn down mid-simulation.
pub fn run_subtasks<T>(tasks: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T>
where
    T: Send + 'static,
{
    let n = tasks.len();
    let (tx, rx) = mpsc::channel::<(usize, SubtaskResult<T>)>();
    let jobs = tasks.into_iter().enumerate().map(|(i, task)| {
        let tx = tx.clone();
        Box::new(move || {
            // Isolate the subtask's output no matter which thread runs
            // it: a subtask run by another experiment's worker must not
            // leak into that experiment's buffer, and one run by its own
            // submitter must not write into its buffer *out of order*.
            let saved = report::swap_capture(Some(String::new()));
            let result = catch_unwind(AssertUnwindSafe(task));
            let text = report::swap_capture(saved).unwrap_or_default();
            // The submitter holds `rx` until every result has arrived.
            let _ = tx.send((i, (result, text)));
        }) as Subtask
    });
    let mut slots: Vec<Option<SubtaskResult<T>>> = (0..n).map(|_| None).collect();
    let mut missing = n;
    let mut collect = || {
        for (i, result) in rx.try_iter() {
            slots[i] = Some(result);
            missing -= 1;
        }
        missing == 0
    };
    match POOL.with(|handle| handle.borrow().clone()) {
        Some(pool) => {
            let mut state = lock(&pool.state);
            state.subtasks.extend(jobs);
            pool.changed.notify_all();
            drop(state);
            // Our own unfinished subtasks are always either still queued,
            // where this loop finds them, or running on a worker that
            // signals when it is done, so the wait always ends.
            pool.help_until(|_| collect());
        }
        None => {
            jobs.for_each(|job| job());
            collect();
        }
    }
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        // Every slot is filled once `missing` hits zero.
        let Some((result, text)) = slot else {
            unreachable!("batch reported done with an unfilled slot");
        };
        report::emit(format_args!("{text}"));
        match result {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_every_task_once_across_worker_counts() {
        for jobs in [1, 2, 4, 16] {
            let counter = AtomicUsize::new(0);
            let tasks: Vec<Task<'_, usize>> = (0..23usize)
                .map(|i| {
                    let counter = &counter;
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                        i * 2
                    }) as Task<'_, usize>
                })
                .collect();
            let mut seen = Vec::new();
            let results = run_tasks(jobs, tasks, |i, _| seen.push(i));
            assert_eq!(counter.load(Ordering::SeqCst), 23);
            assert_eq!(results.len(), 23);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(*r, Some(i * 2), "jobs={jobs}");
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..23).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_task_list_is_fine() {
        let results = run_tasks(4, Vec::<Task<'_, ()>>::new(), |_, _| {});
        assert!(results.is_empty());
    }

    #[test]
    fn uneven_task_durations_overlap() {
        // Every fourth task is slow; 4 workers taking tasks from one
        // queue must still finish well under the serial time.
        let tasks: Vec<Task<'_, ()>> = (0..8)
            .map(|i| {
                Box::new(move || {
                    let ms = if i % 4 == 0 { 40 } else { 5 };
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }) as Task<'_, ()>
            })
            .collect();
        let start = std::time::Instant::now();
        let results = run_tasks(4, tasks, |_, _| {});
        assert!(results.iter().all(Option::is_some));
        // Serial would be 2*40 + 6*5 = 110 ms of sleep; allow generous
        // scheduling slack while still proving overlap happened.
        assert!(
            start.elapsed() < std::time::Duration::from_millis(110),
            "no overlap: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn subtasks_work_outside_any_pool() {
        let results = run_subtasks(
            (0..10usize)
                .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
                .collect(),
        );
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(run_subtasks(Vec::<Box<dyn FnOnce() + Send>>::new()), vec![]);
    }

    #[test]
    fn subtasks_outside_a_pool_stay_on_the_caller() {
        // Another pool runs alongside with an idle worker: its one main
        // task blocks until the end of the test. A batch submitted from a
        // thread that belongs to no pool must not run on that worker.
        let (release, blocked) = mpsc::channel::<()>();
        let (started_tx, started) = mpsc::channel::<()>();
        let other = std::thread::spawn(move || {
            let task: Task<'_, ()> = Box::new(move || {
                let _ = started_tx.send(());
                let _ = blocked.recv();
            });
            run_tasks(2, vec![task], |_, _| {});
        });
        started.recv().expect("the other pool's main task starts");
        let ran_on = run_subtasks(
            (0..8)
                .map(|_| {
                    Box::new(|| {
                        std::thread::sleep(Duration::from_millis(5));
                        std::thread::current().id()
                    }) as Box<dyn FnOnce() -> std::thread::ThreadId + Send>
                })
                .collect(),
        );
        drop(release);
        other.join().expect("the other pool finishes");
        let caller = std::thread::current().id();
        assert!(
            ran_on.iter().all(|&id| id == caller),
            "subtasks ran off the calling thread: {ran_on:?}"
        );
    }

    #[test]
    fn subtask_output_replays_in_submission_order() {
        crate::report::begin_capture();
        crate::report::outln!("before");
        let results = run_subtasks(
            (0..6usize)
                .map(|i| {
                    Box::new(move || {
                        crate::report::outln!("subtask {i}");
                        i
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect(),
        );
        crate::report::outln!("after");
        let captured = crate::report::end_capture();
        assert_eq!(results, vec![0, 1, 2, 3, 4, 5]);
        let expected: String = std::iter::once("before".to_owned())
            .chain((0..6).map(|i| format!("subtask {i}")))
            .chain(std::iter::once("after".to_owned()))
            .map(|l| l + "\n")
            .collect();
        assert_eq!(captured, expected);
    }

    #[test]
    fn main_tasks_can_fan_out_subtasks() {
        // Experiments (main tasks) each fan out subtasks; subtask work
        // from one experiment can be executed by any worker.
        let executed = AtomicUsize::new(0);
        let tasks: Vec<Task<'_, usize>> = (0..4usize)
            .map(|t| {
                let executed = &executed;
                Box::new(move || {
                    let subs = run_subtasks(
                        (0..8usize)
                            .map(|i| {
                                Box::new(move || t * 100 + i)
                                    as Box<dyn FnOnce() -> usize + Send>
                            })
                            .collect(),
                    );
                    executed.fetch_add(subs.len(), Ordering::SeqCst);
                    subs.iter().sum()
                }) as Task<'_, usize>
            })
            .collect();
        let results = run_tasks(3, tasks, |_, _| {});
        assert_eq!(executed.load(Ordering::SeqCst), 32);
        for (t, r) in results.iter().enumerate() {
            assert_eq!(*r, Some(t * 800 + 28));
        }
    }

    #[test]
    fn one_main_task_fans_out_onto_every_worker() {
        // Two subtasks that each wait for the other to start: they can
        // only both succeed if two threads run them at once, i.e. if the
        // second worker exists although there is only one main task. A
        // missing worker fails the handshake by timeout instead of
        // hanging.
        const PATIENCE: Duration = Duration::from_secs(20);
        let (to_b, from_a) = mpsc::channel::<()>();
        let (to_a, from_b) = mpsc::channel::<()>();
        let task: Task<'_, Vec<bool>> = Box::new(move || {
            run_subtasks(vec![
                Box::new(move || {
                    let _ = to_b.send(());
                    from_b.recv_timeout(PATIENCE).is_ok()
                }) as Box<dyn FnOnce() -> bool + Send>,
                Box::new(move || {
                    let _ = to_a.send(());
                    from_a.recv_timeout(PATIENCE).is_ok()
                }),
            ])
        });
        let results = run_tasks(2, vec![task], |_, _| {});
        assert_eq!(
            results,
            vec![Some(vec![true, true])],
            "subtasks never overlapped"
        );
    }

    #[test]
    fn subtask_panic_propagates_to_the_submitter() {
        // Returns the message of the panic the batch re-raised, if any;
        // it must not panic itself, since it also runs on a pool worker.
        fn submit_failing_batch() -> Option<String> {
            let caught = catch_unwind(|| {
                run_subtasks(
                    (0..4usize)
                        .map(|i| {
                            Box::new(move || {
                                assert!(i != 2, "intentional subtask failure");
                                i
                            }) as Box<dyn FnOnce() -> usize + Send>
                        })
                        .collect(),
                )
            });
            let payload = caught.err()?;
            Some(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default(),
            )
        }
        let msg = submit_failing_batch().expect("panic must propagate");
        assert!(msg.contains("intentional subtask failure"), "{msg}");
        // Submitted from a pool worker, the batch goes through the
        // pool's queue instead of running inline.
        let task: Task<'_, Option<String>> = Box::new(submit_failing_batch);
        let results = run_tasks(2, vec![task], |_, _| {});
        let msg = results.into_iter().next().flatten().flatten();
        let msg = msg.expect("panic must propagate through the pool");
        assert!(msg.contains("intentional subtask failure"), "{msg}");
    }

    #[test]
    fn main_task_panic_leaves_none_and_returns() {
        let (done_tx, done_rx) = mpsc::channel();
        // On a helper thread, so a hang fails the test on the timeout
        // instead of hanging the test binary.
        std::thread::spawn(move || {
            let tasks: Vec<Task<'_, u32>> = vec![
                Box::new(|| panic!("intentional main-task failure")),
                Box::new(|| 7),
            ];
            let _ = done_tx.send(run_tasks(2, tasks, |_, _| {}));
        });
        let results = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("run_tasks must return after a main task panics");
        assert_eq!(results, [None, Some(7)]);
    }
}
