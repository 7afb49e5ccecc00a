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
//!   reordered by submission index before they are returned. A run with
//!   `UBURST_THREADS=1` executes the jobs inline on the caller, which is
//!   exactly the old sequential code path.
//! * **Nesting.** Harnesses compose (`repro all` parallelizes
//!   over experiments, each experiment over campaigns), so a global permit
//!   budget of `Scale::threads() - 1` extra workers caps the total number
//!   of live worker threads across nested [`run_jobs`] calls. A nested
//!   call that finds the budget drained simply runs its jobs inline on the
//!   worker it already owns — no oversubscription, no deadlock (the caller
//!   always participates, so progress never depends on acquiring a
//!   permit).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::campaign::{plan_groups, run_group, CampaignRun, CampaignSpec};
use crate::scale::Scale;

/// Permits for *extra* worker threads, shared across nested pools.
static EXTRA_WORKERS: OnceLock<AtomicUsize> = OnceLock::new();

fn budget() -> &'static AtomicUsize {
    EXTRA_WORKERS.get_or_init(|| AtomicUsize::new(Scale::threads().saturating_sub(1)))
}

/// Takes up to `want` permits from the global budget, returning how many
/// were actually acquired.
fn acquire_workers(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let mut got = 0;
    let _ = budget().fetch_update(Ordering::AcqRel, Ordering::Acquire, |avail| {
        got = avail.min(want);
        Some(avail - got)
    });
    got
}

fn release_workers(n: usize) {
    if n > 0 {
        budget().fetch_add(n, Ordering::AcqRel);
    }
}

/// Submitted-job accounting: counts what the caller handed in (inputs,
/// campaigns), never workers or fused groups, so the total is identical
/// whatever the thread budget resolves to and however campaigns share
/// simulations.
fn count_submitted(n: usize) {
    uburst_obs::counter_add!("uburst_pool_jobs_total", n as u64);
}

/// Runs `f` over every input on the worker pool, returning the results in
/// submission order. The calling thread always participates, so this is
/// exactly sequential execution when no extra workers are available
/// (`UBURST_THREADS=1`, a single core, or a drained nested budget).
///
/// # Panics
/// Re-raises a panicking job's own panic once every worker has stopped.
pub fn run_jobs<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    count_submitted(inputs.len());
    run_budgeted(inputs, f)
}

/// Runs the jobs with as many extra workers as the global budget grants.
fn run_budgeted<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let want = inputs.len().min(Scale::threads()).saturating_sub(1);
    let extra = acquire_workers(want);
    let out = run_jobs_with_extra_workers(extra, inputs, f);
    release_workers(extra);
    out
}

/// [`run_jobs`] with an explicit worker-thread count, bypassing both
/// `UBURST_THREADS` and the global budget. `threads` counts the calling
/// thread, so `threads = 1` is sequential. Tests use this to exercise the
/// cross-thread path regardless of the host's core count.
pub fn run_jobs_on<T, R, F>(threads: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    count_submitted(inputs.len());
    run_on(threads, inputs, f)
}

/// Runs the jobs on exactly `threads` threads (the caller included).
fn run_on<T, R, F>(threads: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let extra = threads.max(1).min(inputs.len().max(1)) - 1;
    run_jobs_with_extra_workers(extra, inputs, f)
}

fn run_jobs_with_extra_workers<T, R, F>(extra: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = inputs.len();
    if extra == 0 || n <= 1 {
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

/// Runs every campaign spec on the pool, returning the runs in submission
/// order. Campaigns that measure the same simulation are planned into one
/// group ([`plan_groups`]) and ride one build + one simulation; each group
/// is one pool job, built, run and reduced to `Send` [`CampaignRun`]s
/// inside one worker. Byte-for-byte the same results as calling
/// [`CampaignSpec::run`] in a loop. Nothing is remembered between calls.
pub fn run_parallel(specs: Vec<CampaignSpec>) -> Vec<CampaignRun> {
    run_grouped(specs, |groups| run_budgeted(groups, run_group))
}

/// [`run_parallel`] with an explicit thread count (see [`run_jobs_on`]).
pub fn run_parallel_on(threads: usize, specs: Vec<CampaignSpec>) -> Vec<CampaignRun> {
    run_grouped(specs, |groups| run_on(threads, groups, run_group))
}

/// Plans `specs` into groups, hands the groups to `exec` (one job each),
/// and scatters the runs back to submission order.
fn run_grouped(
    specs: Vec<CampaignSpec>,
    exec: impl FnOnce(Vec<Vec<CampaignSpec>>) -> Vec<Vec<CampaignRun>>,
) -> Vec<CampaignRun> {
    let n = specs.len();
    count_submitted(n);
    let (slots, groups): (Vec<_>, Vec<_>) = plan_groups(specs).into_iter().unzip();
    let mut out: Vec<Option<CampaignRun>> = (0..n).map(|_| None).collect();
    for (slots, runs) in slots.into_iter().zip(exec(groups)) {
        for (slot, run) in slots.into_iter().zip(runs) {
            out[slot] = Some(run);
        }
    }
    out.into_iter()
        .map(|run| run.expect("every spec is planned into exactly one group"))
        .collect()
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

    #[test]
    fn nested_pools_do_not_deadlock() {
        let out = run_jobs_on(3, (0..6u32).collect(), |i| {
            run_jobs((0..4u32).collect(), move |j| i * 10 + j)
        });
        assert_eq!(out.len(), 6);
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(
                *inner,
                (0..4).map(|j| i as u32 * 10 + j).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn budget_is_restored_after_use() {
        let before = budget().load(Ordering::Acquire);
        let _ = run_jobs((0..8u32).collect(), |x| x * 2);
        assert_eq!(budget().load(Ordering::Acquire), before);
    }
}
