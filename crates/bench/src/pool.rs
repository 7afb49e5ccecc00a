//! The parallel campaign execution engine.
//!
//! The paper's framework exists to run *many* concurrent measurement
//! campaigns (30 racks × 24 h × several counter classes); our reproduction
//! builds every campaign from a seed, which makes them embarrassingly
//! parallel: no campaign observes another. This module fans independent
//! jobs across a scoped worker pool and hands the results back **in
//! submission order**, so every report a harness renders is byte-identical
//! to what a sequential run produces — the thread count only changes
//! wall-clock time.
//!
//! Design notes:
//!
//! * **Std-only.** Workers are `std::thread::scope` threads. They and the
//!   calling thread claim `(index, input)` pairs from one `Mutex`-guarded
//!   iterator and keep their own results, so no channel is involved; a
//!   job's panic is re-raised once the scope has joined its workers.
//!   Simulations are full of `Rc`/`Cell` and are **not** `Send`, so a job
//!   builds, runs, and reduces its scenario entirely inside one worker and
//!   only the reduced (`Send`) result crosses threads — see
//!   [`crate::campaign::CampaignRun`].
//! * **Simulate once, measure many.** [`run_parallel`] plans campaigns
//!   that measure the same simulation into one group
//!   ([`crate::campaign::plan_groups`]) and runs one job per group, so a
//!   rack polled by several campaigns is built and simulated once. The
//!   plan is made per call from spec equality; nothing is cached.
//! * **Determinism.** Jobs are seeded and independent; results are
//!   reordered by submission index before they are returned, or handed
//!   out with it ([`run_parallel`]). A run with
//!   `UBURST_THREADS=1` executes the jobs inline on the caller, which is
//!   exactly the old sequential code path.
//! * **No product path nests.** Every `repro` id runs through one
//!   driver, which submits the declared campaigns in one [`run_parallel`]
//!   call; only an experiment that declares none makes pool calls, from
//!   the caller, before that call.

use std::sync::Mutex;

use crate::campaign::{plan_groups, run_group, CampaignRun, CampaignSpec};
use crate::scale::Scale;

/// Submitted-job accounting: counts what the caller handed in (inputs,
/// campaigns), never workers or fused groups, so the total is identical
/// whatever the thread count and however campaigns share simulations.
fn count_submitted(n: usize) {
    uburst_obs::counter_add!("uburst_pool_jobs_total", n as u64);
}

/// Runs `f` over every input on `Scale::threads()` threads, returning the
/// results in submission order. The calling thread always participates,
/// so this is exactly sequential execution with one thread.
///
/// # Panics
/// Re-raises a panicking job's own panic once every worker has stopped.
pub fn run_jobs<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    run_jobs_on(Scale::threads(), inputs, f)
}

/// [`run_jobs`] with an explicit thread count, bypassing
/// `UBURST_THREADS`. `threads` counts the calling thread, so `threads = 1`
/// is sequential. Tests use this to exercise the cross-thread path
/// regardless of the host's core count.
pub fn run_jobs_on<T, R, F>(threads: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    count_submitted(inputs.len());
    run_on(threads, inputs, f)
}

/// Runs the jobs on at most `threads` threads (the caller included).
fn run_on<T, R, F>(threads: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = inputs.len();
    let extra = threads.max(1).min(n.max(1)) - 1;
    if extra == 0 {
        return inputs.into_iter().map(f).collect();
    }
    let jobs = Mutex::new(inputs.into_iter().enumerate());
    // Claims jobs until none are left. The lock is taken in a `let`, so it
    // is released before `f` runs and a panicking job never holds it.
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = jobs
                .lock()
                .expect("the job lock is never held across a job")
                .next();
            let Some((i, t)) = next else {
                return done;
            };
            done.push((i, f(t)));
        }
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..extra).map(|_| s.spawn(work)).collect();
        // The caller is a worker too: progress never requires a spawn.
        let mut results = work();
        for w in workers {
            match w.join() {
                Ok(done) => results.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        in_submission_order(n, results.into_iter())
    })
}

/// Restores submission order: result `i` goes to slot `i`.
///
/// # Panics
/// Panics unless every job in `0..n` reported exactly one result: a
/// second would silently replace a figure's data with another run's.
fn in_submission_order<R>(n: usize, results: impl Iterator<Item = (usize, R)>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in results {
        assert!(slots[i].is_none(), "job {i} completed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("job {i} produced no result")))
        .collect()
}

/// Runs every campaign spec on `Scale::threads()` threads and hands each
/// run to `done`, with its submission index, as soon as its group has run
/// (on the thread that ran it), so the caller can use and drop runs while
/// later groups still simulate. Campaigns that measure the same simulation
/// are planned into one group ([`plan_groups`]) and ride one build + one
/// simulation; each group is one pool job, built, run and reduced to
/// `Send` [`CampaignRun`]s inside one worker. Each run is byte-for-byte
/// the one [`CampaignSpec::run`] returns. Nothing is remembered between
/// calls.
pub fn run_parallel(specs: Vec<CampaignSpec>, done: impl Fn(usize, CampaignRun) + Sync) {
    run_groups(Scale::threads(), specs, done);
}

/// [`run_parallel`]'s runs on an explicit thread count (see
/// [`run_jobs_on`]), collected in submission order.
pub fn run_parallel_on(threads: usize, specs: Vec<CampaignSpec>) -> Vec<CampaignRun> {
    let n = specs.len();
    let runs = Mutex::new(Vec::with_capacity(n));
    run_groups(threads, specs, |i, run| {
        runs.lock().expect("no job panicked").push((i, run));
    });
    in_submission_order(n, runs.into_inner().expect("no job panicked").into_iter())
}

/// Plans `specs` into groups and runs one pool job per group on `threads`
/// threads, handing each run to `done` with its submission index.
fn run_groups(threads: usize, specs: Vec<CampaignSpec>, done: impl Fn(usize, CampaignRun) + Sync) {
    count_submitted(specs.len());
    run_on(threads, plan_groups(specs), |(slots, group)| {
        for (slot, run) in slots.into_iter().zip(run_group(group)) {
            done(slot, run);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Jobs finish out of order on purpose: later jobs sleep less.
        let inputs: Vec<u64> = (0..32).collect();
        let out = run_jobs_on(4, inputs, |i| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
            i * 10
        });
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "job 1 completed twice")]
    fn a_job_reporting_twice_is_refused_in_release() {
        in_submission_order(2, [(1, 'a'), (0, 'b'), (1, 'c')].into_iter());
    }

    #[test]
    #[should_panic(expected = "job panicked on a worker")]
    fn a_worker_panic_reraises_the_jobs_message() {
        // Four jobs on four threads, each held at the barrier until all four
        // are claimed, so every thread runs exactly one; the three on
        // spawned workers panic, the caller's returns.
        let caller = std::thread::current().id();
        let all_claimed = std::sync::Barrier::new(4);
        run_jobs_on(4, (0..4u32).collect(), |i| {
            all_claimed.wait();
            assert_eq!(
                std::thread::current().id(),
                caller,
                "job panicked on a worker"
            );
            i
        });
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let work = |i: u64| -> u64 {
            // A little deterministic arithmetic per job.
            (0..1_000).fold(i, |acc, k| {
                acc.wrapping_mul(6364136223846793005).wrapping_add(k)
            })
        };
        let seq = run_jobs_on(1, (0..64).collect(), work);
        let par = run_jobs_on(8, (0..64).collect(), work);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = run_jobs_on(4, Vec::<u32>::new(), |x| x);
        assert!(none.is_empty());
        assert_eq!(run_jobs_on(4, vec![7u32], |x| x + 1), vec![8]);
    }
}
