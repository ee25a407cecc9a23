//! A small hand-rolled work-stealing thread pool for the experiment
//! driver, with **two-level scheduling**: the driver submits experiments
//! as *main tasks*, and a running experiment may fan its simulations out
//! as *subtasks* onto the same workers via [`run_subtasks`], so one big
//! experiment saturates every core instead of serializing behind the
//! driver-level parallelism.
//!
//! The container this project builds in has no route to a crates
//! registry, so instead of `rayon` this is a couple hundred lines of
//! `std`:
//!
//! * **Main tasks** — each worker owns a deque seeded round-robin with
//!   its share, pops from the front of its own deque, and steals from
//!   the back of a sibling's when it runs dry.
//! * **Subtasks** — a process-wide injector queue. Workers prefer
//!   injector work over main tasks (a queued simulation is always on
//!   some experiment's critical path), and the submitting thread *helps*:
//!   while waiting for its batch it executes injector work itself, so
//!   [`run_subtasks`] also functions (serially) outside any pool — unit
//!   tests and examples need no special case.
//! * Since tasks now spawn subtasks, an idle worker may not exit just
//!   because every deque is empty — more work can appear while any main
//!   task is still running. Idle workers park on a condvar with a short
//!   timeout and exit only when the batch's main-task count hits zero.
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
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A unit of pool work, tagged with its index in the submission order.
type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// A worker's deque of (submission index, task) pairs.
type TaskQueue<'a, T> = VecDeque<(usize, Task<'a, T>)>;

/// An enqueued subtask, already wrapped so it stores its own result.
type Subtask = Box<dyn FnOnce() + Send + 'static>;

/// Locks `m`, recovering from a poisoned lock: pool tasks are run under
/// `catch_unwind`, so if a panic does escape while a lock is held the
/// protected data only ever holds plain jobs/slots and remains
/// structurally valid.
fn lock<'a, T: ?Sized>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The process-wide subtask injector. Subtasks carry everything they
/// need (`'static + Send`), so one queue serves every concurrently
/// running batch; results find their way back through the per-batch
/// latch each wrapped subtask holds an `Arc` to.
static INJECTOR: Mutex<VecDeque<Subtask>> = Mutex::new(VecDeque::new());

/// Signalled (with the [`INJECTOR`] lock held) when subtasks are pushed;
/// idle workers park here with a short timeout.
static INJECTOR_SIGNAL: Condvar = Condvar::new();

/// Pops and runs one injector subtask. Returns `false` if the injector
/// was empty.
fn run_one_subtask() -> bool {
    let job = lock(&INJECTOR).pop_front();
    match job {
        Some(job) => {
            job();
            true
        }
        None => false,
    }
}

/// Runs `tasks` on `jobs` worker threads, calling `on_complete(index,
/// &result)` on the **calling thread** as each task finishes (in
/// completion order). Returns the results in submission order; an entry
/// is `None` only if the worker executing it died (a panic escaping the
/// task closure).
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
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.max(1);

    // Seed the per-worker deques round-robin so long-running experiments
    // registered next to each other start on different workers.
    let mut deques: Vec<TaskQueue<'env, T>> = (0..jobs).map(|_| VecDeque::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        deques[i % jobs].push_back((i, task));
    }
    let deques: Vec<Mutex<TaskQueue<'env, T>>> = deques.into_iter().map(Mutex::new).collect();

    // Main tasks not yet *completed* (not merely not-yet-started): while
    // any is running it may still enqueue subtasks, so idle workers park
    // instead of exiting until this reaches zero.
    let remaining = AtomicUsize::new(n);

    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, T)>();

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let tx = tx.clone();
            let deques = &deques;
            let remaining = &remaining;
            scope.spawn(move || loop {
                // Subtasks first: an injected simulation always sits on
                // some running experiment's critical path, while a main
                // task only *starts* a new experiment.
                if run_one_subtask() {
                    continue;
                }
                // Own work next (front: submission order within the
                // worker), then steal from the back of the most loaded
                // sibling.
                let mut job = lock(&deques[w]).pop_front();
                if job.is_none() {
                    let mut best: Option<(usize, usize)> = None; // (len, victim)
                    for off in 1..deques.len() {
                        let v = (w + off) % deques.len();
                        let len = lock(&deques[v]).len();
                        if len > 0 && best.is_none_or(|(l, _)| len > l) {
                            best = Some((len, v));
                        }
                    }
                    if let Some((_, victim)) = best {
                        job = lock(&deques[victim]).pop_back();
                    }
                }
                if let Some((i, f)) = job {
                    let result = f();
                    remaining.fetch_sub(1, Ordering::SeqCst);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                    continue;
                }
                // No visible work. Exit once every main task completed
                // (nothing can enqueue more subtasks for this batch);
                // otherwise park briefly for injector work to appear.
                if remaining.load(Ordering::SeqCst) == 0 {
                    break;
                }
                let guard = lock(&INJECTOR);
                if guard.is_empty() {
                    // Timeout bounds the race between our emptiness
                    // checks and a concurrent push + notify.
                    let _ = INJECTOR_SIGNAL.wait_timeout(guard, Duration::from_millis(1));
                }
            });
        }
        drop(tx);
        // Single consumer: every completion is reported from this thread,
        // so callers get serialized output for free. If all workers died
        // the channel closes early and the remaining slots stay `None`.
        while let Ok((i, v)) = rx.recv() {
            on_complete(i, &v);
            results[i] = Some(v);
        }
    });
    results
}

/// Result slot of one subtask: its value (or escaped panic payload) and
/// everything it printed through the output capture.
type SubtaskResult<T> = (Result<T, Box<dyn Any + Send>>, String);

/// The synchronization point of one [`run_subtasks`] batch.
struct Latch<T> {
    state: Mutex<LatchState<T>>,
    done: Condvar,
}

struct LatchState<T> {
    slots: Vec<Option<SubtaskResult<T>>>,
    remaining: usize,
}

/// Runs `tasks` as pool subtasks and returns their results in submission
/// order, blocking until all complete. Safe to call from anywhere:
///
/// * On a pool worker (the normal case — an experiment fanning out its
///   simulations), the tasks are pushed onto the process-wide injector
///   where **every** worker can pick them up, and the calling worker
///   helps execute injector work while it waits.
/// * Outside any pool, the calling thread just executes everything
///   itself via the same help loop — a plain serial fallback.
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
    if n == 0 {
        return Vec::new();
    }
    let latch = std::sync::Arc::new(Latch {
        state: Mutex::new(LatchState {
            slots: (0..n).map(|_| None).collect(),
            remaining: n,
        }),
        done: Condvar::new(),
    });
    {
        let mut injector = lock(&INJECTOR);
        for (i, task) in tasks.into_iter().enumerate() {
            let latch = std::sync::Arc::clone(&latch);
            injector.push_back(Box::new(move || {
                // Isolate the subtask's output no matter which thread
                // runs it: a stolen subtask must not leak into a foreign
                // experiment's buffer, and a helped one must not write
                // into its own experiment's buffer *out of order*.
                let saved = report::swap_capture(Some(String::new()));
                let result = catch_unwind(AssertUnwindSafe(task));
                let text = report::swap_capture(saved).unwrap_or_default();
                let mut state = lock(&latch.state);
                state.slots[i] = Some((result, text));
                state.remaining -= 1;
                if state.remaining == 0 {
                    latch.done.notify_all();
                }
            }));
        }
        INJECTOR_SIGNAL.notify_all();
    }
    // Help: execute injector work (ours or anyone's) while waiting. Our
    // own remaining subtasks are always either still in the injector —
    // where this loop will find them — or being executed by a worker
    // that will count them down, so the wait below always terminates.
    loop {
        if run_one_subtask() {
            continue;
        }
        let state = lock(&latch.state);
        if state.remaining == 0 {
            break;
        }
        // Short timeout: re-check the injector for foreign work so a
        // waiting submitter stays a useful worker.
        let _ = latch.done.wait_timeout(state, Duration::from_millis(1));
    }
    let slots = std::mem::take(&mut lock(&latch.state).slots);
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        // Every slot is filled once `remaining` hits zero.
        let Some((result, text)) = slot else {
            unreachable!("latch reported done with an unfilled slot");
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
    fn uneven_task_durations_are_stolen() {
        // One deque gets all the slow tasks; with stealing, 4 workers
        // must still finish well under the serial time.
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
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("intentional subtask failure"), "{msg}");
    }
}
