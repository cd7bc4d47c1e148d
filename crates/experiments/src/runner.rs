//! Simulation runner: executes configured networks (optionally in parallel
//! across a sweep) and extracts per-application results.
//!
//! The parallel runner is hardened against the three ways a long sweep
//! dies in practice:
//!
//! - **Panics**: each job runs under `catch_unwind` and is retried once
//!   (a panicking job usually reproduces — the retry distinguishes a
//!   deterministic kernel bug from a transient host hiccup). A job that
//!   panics twice is reported with its label and both messages; the
//!   remaining jobs still complete, and `run_parallel` re-raises an
//!   aggregate failure only after the whole sweep has finished.
//! - **Runaway configurations**: [`ExpConfig::cycle_budget`] caps the
//!   simulated cycles of one run. The cap lives in the cycle domain, not
//!   wall-clock (`Instant` is banned by the determinism lint): the kernel
//!   is deterministic, so "this config is too slow" is exactly "this
//!   config was asked to simulate too many cycles". A clamped run is
//!   marked [`RunResult::truncated`] instead of silently passing.
//! - **Interruption**: [`run_parallel_checkpointed`] journals every
//!   finished result to a checkpoint file and, on restart, resumes the
//!   sweep by replaying completed labels from it instead of re-running
//!   them. The file is deleted once every job has succeeded.

use crate::service::{record, Journal};
use metrics::LatencyKind;
use noc_sim::network::Network;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Warmup/measurement window and seed for one experiment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExpConfig {
    pub warmup: u64,
    pub measure: u64,
    pub seed: u64,
    /// Quick mode trades statistical tightness for speed (used by the
    /// Criterion benches and the test suite).
    pub quick: bool,
    /// Hard cap on simulated cycles per run (warmup + measurement are
    /// clamped to fit). The cycle-domain analogue of a per-config timeout;
    /// `None` means unbounded.
    pub cycle_budget: Option<u64>,
    /// Opt-in sweep pruning (`repro --prune`): curve points the analytical
    /// model classifies as deep-in-saturation or trivially stable run with
    /// shortened windows (a confirmation run) instead of full-length ones.
    /// Off by default so default digests are untouched.
    pub prune: bool,
}

impl ExpConfig {
    /// The paper's windows: 10K warmup + 100K measurement cycles (§V.A).
    pub fn full() -> Self {
        Self {
            warmup: 10_000,
            measure: 100_000,
            seed: 0xC0FFEE,
            quick: false,
            cycle_budget: None,
            prune: false,
        }
    }

    /// Reduced windows for benches/tests.
    pub fn quick() -> Self {
        Self {
            warmup: 2_000,
            measure: 15_000,
            seed: 0xC0FFEE,
            quick: true,
            cycle_budget: None,
            prune: false,
        }
    }

    /// Cap simulated cycles per run (see [`ExpConfig::cycle_budget`]).
    #[must_use]
    pub fn with_budget(mut self, cycles: u64) -> Self {
        self.cycle_budget = Some(cycles);
        self
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunResult {
    /// Label identifying the run (scheme, parameters…).
    pub label: String,
    /// Mean network latency (injection→ejection) per application; `None`
    /// when the application delivered no packets in the window.
    pub apl: Vec<Option<f64>>,
    /// Mean total latency (generation→ejection) per application.
    pub total_latency: Vec<Option<f64>>,
    /// Packets delivered in the measurement window.
    pub delivered: u64,
    /// Flit throughput in flits/cycle/node.
    pub throughput: f64,
    /// Cycles simulated (warmup + measurement).
    pub cycles: u64,
    /// Routers in the mesh.
    pub routers: usize,
    /// Router×phase visits elided by the active-set fast path.
    pub router_cycles_skipped: u64,
    /// End-of-cycle router state updates elided.
    pub state_updates_skipped: u64,
    /// Whole cycles jumped over by the idle fast-forward without ticking.
    pub idle_cycles_skipped: u64,
    /// Whether the invariant oracle was active during the run.
    pub oracle_enabled: bool,
    /// Invariant violations the oracle recorded (0 when disabled).
    pub oracle_violations: u64,
    /// Whether [`ExpConfig::cycle_budget`] clamped the warmup/measurement
    /// windows, i.e. the run timed out in the cycle domain.
    pub truncated: bool,
    /// Link-level retransmissions performed (0 without a fault timeline).
    pub flits_retransmitted: u64,
    /// Stranded packets re-injected by the source-side retry path.
    pub packets_retried: u64,
    /// Packets dropped as undeliverable (drop ledger total).
    pub packets_dropped: u64,
    /// Routing reconfigurations after permanent faults.
    pub reconfigurations: u64,
}

impl RunResult {
    /// Unweighted mean of the per-application APLs (how the paper averages
    /// "over all applications"), restricted to `apps` if given. Applications
    /// that delivered nothing in the window — routine at saturation — are
    /// skipped; `NaN` is returned when none delivered, so a starved sweep
    /// point shows up in tables instead of tearing down the run.
    pub fn mean_apl(&self, apps: Option<&[usize]>) -> f64 {
        let vals: Vec<f64> = match apps {
            Some(idx) => idx.iter().filter_map(|&a| self.apl[a]).collect(),
            None => self.apl.iter().flatten().copied().collect(),
        };
        if vals.is_empty() {
            return f64::NAN;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    /// APL of one application, or `None` if it delivered nothing.
    pub fn try_app_apl(&self, app: usize) -> Option<f64> {
        self.apl[app]
    }

    /// APL of one application; `NaN` when it delivered nothing (so ratios
    /// and tables degrade visibly instead of panicking at saturation).
    pub fn app_apl(&self, app: usize) -> f64 {
        self.apl[app].unwrap_or(f64::NAN)
    }

    /// Fold every numeric field (everything but the label, which is
    /// presentation) into a digest. Floats go in by bit pattern and
    /// `None` latencies get a distinct marker, so the fold distinguishes
    /// every state the checkpoint format can round-trip.
    pub fn digest_into(&self, d: &mut metrics::Digest) {
        for v in [&self.apl, &self.total_latency] {
            d.write_u64(v.len() as u64);
            for o in v {
                match o {
                    Some(x) => {
                        d.write_u64(1);
                        d.write_f64(*x);
                    }
                    None => d.write_u64(0),
                }
            }
        }
        d.write_u64(self.delivered);
        d.write_f64(self.throughput);
        d.write_u64(self.cycles);
        d.write_u64(self.routers as u64);
        d.write_u64(self.router_cycles_skipped);
        d.write_u64(self.state_updates_skipped);
        d.write_u64(self.idle_cycles_skipped);
        d.write_u64(u64::from(self.oracle_enabled));
        d.write_u64(self.oracle_violations);
        d.write_u64(u64::from(self.truncated));
        d.write_u64(self.flits_retransmitted);
        d.write_u64(self.packets_retried);
        d.write_u64(self.packets_dropped);
        d.write_u64(self.reconfigurations);
    }

    /// One-line report of how much per-cycle kernel work the active-set
    /// fast path and the idle fast-forward elided during this run.
    pub fn kernel_summary(&self) -> String {
        let visits = self.cycles * self.routers as u64;
        metrics::report::kernel_summary(
            visits * 3,
            self.router_cycles_skipped,
            visits,
            self.state_updates_skipped,
            self.cycles,
            self.idle_cycles_skipped,
        )
    }
}

/// Run one already-built network through warmup + measurement and collect
/// the result.
pub fn run_one(label: impl Into<String>, mut net: Network, cfg: &ExpConfig) -> RunResult {
    let budget = cfg.cycle_budget.unwrap_or(u64::MAX);
    let warmup = cfg.warmup.min(budget);
    let measure = cfg.measure.min(budget - warmup);
    let truncated = (warmup, measure) != (cfg.warmup, cfg.measure);
    net.run_warmup_measure(warmup, measure);
    let rec = &net.stats.recorder;
    let napps = rec.num_apps();
    RunResult {
        label: label.into(),
        apl: (0..napps)
            .map(|a| rec.app(a).mean(LatencyKind::Network))
            .collect(),
        total_latency: (0..napps)
            .map(|a| rec.app(a).mean(LatencyKind::Total))
            .collect(),
        delivered: rec.delivered(),
        throughput: net.stats.throughput(net.cycle(), net.cfg.num_nodes()),
        cycles: net.cycle(),
        routers: net.cfg.num_routers(),
        router_cycles_skipped: net.stats.router_cycles_skipped,
        state_updates_skipped: net.stats.state_updates_skipped,
        idle_cycles_skipped: net.stats.idle_cycles_skipped,
        oracle_enabled: net.oracle_enabled(),
        oracle_violations: net.stats.oracle_violation_count,
        truncated,
        flits_retransmitted: net.stats.flits_retransmitted,
        packets_retried: net.stats.packets_retried,
        packets_dropped: net.stats.packets_dropped,
        reconfigurations: net.stats.reconfigurations,
    }
}

/// A deferred, labeled simulation job for the parallel sweep runner. The
/// label travels with the job so a panic can be attributed even though the
/// closure never produced a `RunResult`; the closure is `Fn` (not
/// `FnOnce`) so a panicking job can be retried once.
pub struct Job {
    label: String,
    run: Box<dyn Fn() -> RunResult + Send>,
}

impl Job {
    pub fn new(label: impl Into<String>, run: impl Fn() -> RunResult + Send + 'static) -> Job {
        Job {
            label: label.into(),
            run: Box::new(run),
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    /// Run the job, retrying once on panic (simulation jobs are
    /// deterministic, so a reproduced panic is a real kernel/config bug;
    /// a one-off is a host-level hiccup the sweep should survive). A
    /// double panic becomes a labeled error carrying both messages.
    fn execute(&self) -> Result<RunResult, JobError> {
        let attempt = || catch_unwind(AssertUnwindSafe(|| (self.run)()));
        match attempt() {
            Ok(r) => Ok(r),
            Err(first) => {
                eprintln!("[sweep] job '{}' panicked; retrying once", self.label);
                attempt().map_err(|second| JobError {
                    label: self.label.clone(),
                    message: format!(
                        "panicked twice (first: {}; retry: {})",
                        panic_message(first.as_ref()),
                        panic_message(second.as_ref())
                    ),
                })
            }
        }
    }
}

/// Best-effort extraction of a human-readable panic message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(std::string::ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A job that panicked instead of producing a result.
#[derive(Debug, Clone)]
pub struct JobError {
    pub label: String,
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job '{}' panicked: {}", self.label, self.message)
    }
}

/// Resolve the sweep worker count: a parseable `RAIR_THREADS` value wins
/// (clamped to at least 1), otherwise every available core is used; either
/// way no more workers than jobs are spawned. Parallelism never changes
/// results — runs are independent and deterministic — so the override is
/// purely about machine sharing.
pub(crate) fn worker_count_from(env_threads: Option<&str>, jobs: usize) -> usize {
    let (count, warning) = resolve_worker_count(env_threads, jobs);
    if let Some(w) = warning {
        eprintln!("{w}");
    }
    count
}

/// Pure core of [`worker_count_from`]: returns the worker count plus the
/// stderr warning to emit when `RAIR_THREADS` is set but unparseable, so
/// the warning path is unit-testable without capturing stderr. A silent
/// fallback here cost a debugging session once — `RAIR_THREADS=all` ran a
/// 1000-job sweep on every core of a shared box.
fn resolve_worker_count(env_threads: Option<&str>, jobs: usize) -> (usize, Option<String>) {
    let fallback = || std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let (count, warning) = match env_threads {
        None => (fallback(), None),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(t) => (t.max(1), None),
            Err(_) => {
                let f = fallback();
                (
                    f,
                    Some(format!(
                        "[sweep] warning: RAIR_THREADS={s:?} is not a thread count; \
                         falling back to {f} workers (available parallelism)"
                    )),
                )
            }
        },
    };
    (count.min(jobs), warning)
}

/// The sweep worker pool: apply `f` to every item on
/// [`worker_count_from`] scoped threads (`RAIR_THREADS` overrides the
/// count) and return the outputs in item order, whatever order they
/// finished in. Items are handed out in order, so with one worker they run
/// serially, in order, on the calling thread. The job sweep and the
/// saturation-search batch both run here. `f` must not panic: a panic
/// escaping a scoped thread loses its message, so callers that need panic
/// isolation catch inside `f`.
pub(crate) fn pool_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = worker_count_from(std::env::var("RAIR_THREADS").ok().as_deref(), items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = queue.lock().expect("pool queue poisoned").pop();
                let Some((idx, item)) = next else { break };
                let out = f(item);
                slots.lock().expect("pool results poisoned")[idx] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("pool results poisoned")
        .into_iter()
        .map(|r| r.expect("every pool item ran"))
        .collect()
}

/// Sweep core shared by the plain and checkpointed runners: execute
/// `(original index, job)` pairs on [`pool_map`], invoking `on_success`
/// for each completed result (the checkpoint append hook). `total`/`already`
/// shape the progress messages when part of the sweep was pre-resolved
/// from a checkpoint. Pairs come back in input order.
fn run_indexed(
    jobs: Vec<(usize, Job)>,
    total: usize,
    already: usize,
    on_success: &(dyn Fn(&RunResult) + Sync),
) -> Vec<(usize, Result<RunResult, JobError>)> {
    let done = AtomicUsize::new(already);
    pool_map(jobs, |(idx, job)| {
        let r = job.execute();
        if let Ok(ok) = &r {
            on_success(ok);
        }
        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
        if total > 1 {
            eprintln!("[sweep] {d}/{total} done ({})", job.label());
        }
        (idx, r)
    })
}

/// Execute jobs across worker threads (one simulation per thread; see
/// [`worker_count_from`] for the `RAIR_THREADS` override). Results are
/// returned in job order; a job that panics twice becomes an `Err` while
/// every other job still runs to completion. Progress is reported on
/// stderr as jobs finish.
pub fn run_parallel_results(jobs: Vec<Job>) -> Vec<Result<RunResult, JobError>> {
    let n = jobs.len();
    run_indexed(jobs.into_iter().enumerate().collect(), n, 0, &|_| {})
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

/// Like [`run_parallel_results`], but resumable: results already present
/// in the checkpoint file (matched by job label — labels must be unique
/// within a sweep) are replayed without re-running their jobs, every fresh
/// result is appended to the file as it completes, and the file is
/// removed once the whole sweep has succeeded. An interrupted or
/// partially-failed sweep therefore restarts from where it stopped.
pub fn run_parallel_checkpointed(
    jobs: Vec<Job>,
    checkpoint: &Path,
) -> Vec<Result<RunResult, JobError>> {
    run_parallel_checkpointed_with(crate::service::std_store(), jobs, checkpoint)
}

/// [`run_parallel_checkpointed`] over an injectable [`Store`] — the seam
/// the chaos battery drives disk faults through. The checkpoint is a
/// [`Journal`] of `done` rows: each fresh result is appended *durably*
/// (fsync'd), and resume follows [`Journal::replay`]'s rules — a torn
/// final row is dropped, a corrupt interior row is quarantined to
/// `<checkpoint>.quarantine` — so a damaged row only re-runs its job. An
/// append failure is counted and warned about by the journal, never
/// fatal: the sweep still completes, only its resume coverage shrinks.
///
/// [`Store`]: crate::service::Store
pub fn run_parallel_checkpointed_with(
    store: &dyn crate::service::Store,
    jobs: Vec<Job>,
    checkpoint: &Path,
) -> Vec<Result<RunResult, JobError>> {
    let n = jobs.len();
    let journal = Journal::new(checkpoint, store);
    let cached: BTreeMap<String, RunResult> = journal
        .replay()
        .rows
        .iter()
        .filter_map(|row| {
            row.strip_prefix("done\t")
                .and_then(record::parse_result_line)
        })
        .map(|r| (r.label.clone(), r))
        .collect();
    let mut out: Vec<Option<Result<RunResult, JobError>>> = (0..n).map(|_| None).collect();
    let mut pending = Vec::new();
    for (idx, job) in jobs.into_iter().enumerate() {
        match cached.get(job.label()) {
            Some(r) => out[idx] = Some(Ok(r.clone())),
            None => pending.push((idx, job)),
        }
    }
    let resumed = n - pending.len();
    if resumed > 0 {
        eprintln!(
            "[sweep] resumed {resumed}/{n} result(s) from {}",
            checkpoint.display()
        );
    }
    if !pending.is_empty() {
        if let Some(dir) = checkpoint.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = store.create_dir_all(dir) {
                    eprintln!(
                        "[sweep] warning: could not create checkpoint directory {}: {e}",
                        dir.display()
                    );
                }
            }
        }
        let append = |r: &RunResult| journal.append(&format!("done\t{}", record::result_line(r)));
        for (idx, r) in run_indexed(pending, n, resumed, &append) {
            out[idx] = Some(r);
        }
    }
    let results: Vec<Result<RunResult, JobError>> = out
        .into_iter()
        .map(|r| r.expect("all jobs resolved"))
        .collect();
    if results.iter().all(Result::is_ok) {
        for path in [checkpoint, &journal.quarantine_path()] {
            if store.exists(path) {
                if let Err(e) = store.remove(path) {
                    eprintln!(
                        "[sweep] warning: could not remove completed checkpoint file {}: {e}",
                        path.display()
                    );
                }
            }
        }
    }
    results
}

/// Like [`run_parallel_results`], but panics — after every job has finished
/// — if any job failed, listing the failed labels. Figure drivers need all
/// results, so a missing one is fatal, just not before the sweep completes.
pub fn run_parallel(jobs: Vec<Job>) -> Vec<RunResult> {
    let results = run_parallel_results(jobs);
    let failures: Vec<String> = results
        .iter()
        .filter_map(|r| r.as_ref().err().map(std::string::ToString::to_string))
        .collect();
    assert!(
        failures.is_empty(),
        "{} sweep job(s) failed:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::prelude::*;

    fn tiny_net(seed: u64) -> Network {
        let cfg = SimConfig::table1();
        let pkt = NewPacket {
            dst: 9,
            app: 0,
            class: 0,
            size: 1,
            reply: None,
        };
        Network::new(
            cfg,
            RegionMap::single(&SimConfig::table1()),
            Box::new(DuatoLocalAdaptive),
            Box::new(RoundRobin),
            Box::new(ScriptedSource::new(1, vec![(2100, 0, pkt)])),
            seed,
        )
    }

    #[test]
    fn run_one_collects_apl() {
        let cfg = ExpConfig {
            warmup: 2_000,
            measure: 3_000,
            seed: 0,
            quick: true,
            cycle_budget: None,
            prune: false,
        };
        let r = run_one("probe", tiny_net(1), &cfg);
        assert_eq!(r.delivered, 1);
        assert!(r.app_apl(0) > 0.0);
        assert!(r.mean_apl(None) > 0.0);
        // A single-packet run is almost entirely idle: between the idle
        // fast-forward (whole cycles jumped, 3 phase visits per router each)
        // and the active-set fast path (visits elided inside real ticks),
        // nearly all router work must have been skipped.
        assert_eq!(r.cycles, 5_000);
        assert_eq!(r.routers, 64);
        let elided = r.router_cycles_skipped + 3 * r.routers as u64 * r.idle_cycles_skipped;
        assert!(
            elided > r.cycles * r.routers as u64 * 3 / 2,
            "fast paths barely skipped: {elided}"
        );
        // The source injects exactly one packet at cycle 2100; everything
        // before and most of the drain after it fast-forwards.
        assert!(
            r.idle_cycles_skipped > 4_000,
            "idle fast-forward skipped only {} cycles",
            r.idle_cycles_skipped
        );
        assert!(r.state_updates_skipped > 0);
        assert!(r.kernel_summary().starts_with("kernel:"));
    }

    #[test]
    fn starved_app_yields_nan_not_panic() {
        let r = RunResult {
            label: "starved".into(),
            apl: vec![None, Some(12.0)],
            total_latency: vec![None, Some(14.0)],
            delivered: 3,
            throughput: 0.01,
            cycles: 1_000,
            routers: 64,
            ..RunResult::default()
        };
        assert!(r.app_apl(0).is_nan());
        assert_eq!(r.try_app_apl(0), None);
        assert_eq!(r.app_apl(1), 12.0);
        // mean over delivered apps only; NaN when nothing delivered at all.
        assert_eq!(r.mean_apl(None), 12.0);
        assert!(r.mean_apl(Some(&[0])).is_nan());
    }

    #[test]
    fn parallel_matches_serial_and_preserves_order() {
        let cfg = ExpConfig {
            warmup: 1_000,
            measure: 2_500,
            seed: 0,
            quick: true,
            cycle_budget: None,
            prune: false,
        };
        let mk = |i: usize| -> Job {
            Job::new(format!("job{i}"), move || {
                run_one(format!("job{i}"), tiny_net(i as u64), &cfg)
            })
        };
        let serial: Vec<RunResult> = (0..6).map(|i| ((mk(i)).run)()).collect();
        let parallel = run_parallel((0..6).map(mk).collect());
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.delivered, p.delivered);
            assert_eq!(s.apl, p.apl, "parallelism changed results");
        }
    }

    #[test]
    fn panicking_job_does_not_kill_the_sweep() {
        let cfg = ExpConfig {
            warmup: 500,
            measure: 1_000,
            seed: 0,
            quick: true,
            cycle_budget: None,
            prune: false,
        };
        let mut jobs = Vec::new();
        for i in 0..4 {
            jobs.push(Job::new(format!("ok{i}"), move || {
                run_one(format!("ok{i}"), tiny_net(i as u64), &cfg)
            }));
        }
        jobs.insert(
            2,
            Job::new("boom", || panic!("synthetic failure for the test")),
        );
        let results = run_parallel_results(jobs);
        assert_eq!(results.len(), 5);
        // All non-panicking jobs completed, in order.
        for (i, idx) in [0usize, 1, 3, 4].iter().zip([0usize, 1, 2, 3]) {
            let r = results[*i].as_ref().unwrap();
            assert_eq!(r.label, format!("ok{idx}"));
        }
        let err = results[2].as_ref().unwrap_err();
        assert_eq!(err.label, "boom");
        assert!(err.message.contains("synthetic failure"));
    }

    #[test]
    fn run_parallel_reports_failed_labels() {
        let caught =
            std::panic::catch_unwind(|| run_parallel(vec![Job::new("doomed", || panic!("nope"))]));
        let payload = caught.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("doomed"), "missing label in: {msg}");
    }

    #[test]
    fn empty_jobs_ok() {
        assert!(run_parallel(vec![]).is_empty());
    }

    /// A plausible fabricated result for runner-plumbing tests that don't
    /// need a real simulation.
    fn stub_result(label: &str) -> RunResult {
        RunResult {
            label: label.into(),
            apl: vec![Some(10.0), None],
            total_latency: vec![Some(12.5), None],
            delivered: 42,
            throughput: 0.125,
            cycles: 5_000,
            routers: 64,
            router_cycles_skipped: 7,
            state_updates_skipped: 8,
            idle_cycles_skipped: 9,
            oracle_enabled: true,
            oracle_violations: 0,
            truncated: false,
            flits_retransmitted: 3,
            packets_retried: 2,
            packets_dropped: 1,
            reconfigurations: 1,
        }
    }

    #[test]
    fn panicking_job_is_retried_once() {
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let job = Job::new("flaky", move || {
            if c.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient failure");
            }
            stub_result("flaky")
        });
        let r = run_parallel_results(vec![job]);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "expected exactly one retry"
        );
        assert_eq!(r[0].as_ref().unwrap().label, "flaky");
    }

    #[test]
    fn cycle_budget_truncates_run() {
        let cfg = ExpConfig {
            warmup: 2_000,
            measure: 3_000,
            seed: 0,
            quick: true,
            cycle_budget: None,
            prune: false,
        };
        let bounded = run_one("bounded", tiny_net(1), &cfg.with_budget(2_500));
        assert_eq!(bounded.cycles, 2_500, "budget must clamp simulated cycles");
        assert!(bounded.truncated);
        let free = run_one("free", tiny_net(1), &cfg);
        assert_eq!(free.cycles, 5_000);
        assert!(!free.truncated);
        // A budget that already covers the windows changes nothing.
        let roomy = run_one("roomy", tiny_net(1), &cfg.with_budget(10_000));
        assert_eq!(roomy.cycles, 5_000);
        assert!(!roomy.truncated);
    }

    /// Digest of a sweep's results, for "matches a clean run" checks.
    fn digest_of(results: &[Result<RunResult, JobError>]) -> u64 {
        let mut d = metrics::Digest::new();
        for r in results {
            let r = r.as_ref().expect("job succeeded");
            d.write_str(&r.label);
            r.digest_into(&mut d);
        }
        d.finish()
    }

    #[test]
    fn checkpointed_sweep_resumes_and_cleans_up() {
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("rair-ckpt-test-{}", std::process::id()));
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sweep.ckpt");
        let quarantine = dir.join("sweep.ckpt.quarantine");
        let calls: Arc<Mutex<Vec<String>>> = Arc::default();
        let mk = |label: &str, fail: bool| -> Job {
            let calls = calls.clone();
            let label = label.to_string();
            Job::new(label.clone(), move || {
                calls.lock().unwrap().push(label.clone());
                assert!(!fail, "always failing");
                stub_result(&label)
            })
        };
        let labels = ["a", "bad", "c"];
        let clean = digest_of(&run_parallel_results(
            labels.iter().map(|l| mk(l, false)).collect(),
        ));
        calls.lock().unwrap().clear();
        // First pass: two jobs succeed, one fails both attempts — the
        // checkpoint keeps the two successes.
        let r1 =
            run_parallel_checkpointed(labels.iter().map(|&l| mk(l, l == "bad")).collect(), &path);
        assert!(r1[0].is_ok() && r1[2].is_ok());
        assert!(r1[1].is_err());
        assert!(
            path.exists(),
            "partial checkpoint must survive a failed sweep"
        );
        assert_eq!(
            calls.lock().unwrap().len(),
            4,
            "2 successes + 2 attempts of the failing job"
        );
        // Flip one byte in the interior (first) row: replay quarantines it
        // and exactly the job it recorded re-runs, besides the fixed one.
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.lines().next().unwrap();
        let corrupted = crate::service::Journal::parse_line(first)
            .and_then(|row| row.strip_prefix("done\t"))
            .and_then(record::parse_result_line)
            .expect("rows are framed done rows")
            .label;
        let mid = first.len() / 2;
        let mut bytes = text.into_bytes();
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        calls.lock().unwrap().clear();
        let r2 = run_parallel_checkpointed(labels.iter().map(|l| mk(l, false)).collect(), &path);
        let mut reran = calls.lock().unwrap().clone();
        reran.sort();
        let mut expected = [corrupted.as_str(), "bad"];
        expected.sort_unstable();
        assert_eq!(reran, expected, "only the damaged row re-runs");
        assert_eq!(
            digest_of(&r2),
            clean,
            "resumed sweep must match a clean run"
        );
        assert!(
            !path.exists() && !quarantine.exists(),
            "checkpoint and quarantine removed after a fully green sweep"
        );
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_append_failure_is_counted_never_fatal() {
        use crate::service::{ChaosStore, Fault, Store};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("rair-ckpt-enospc-{}", std::process::id()));
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sweep.ckpt");
        // Ops: 0 = replay read (miss), 1 = create_dir_all, 2 + i = the
        // append of job i.
        const FIRST_APPEND: u64 = 2;
        let store = Arc::new(ChaosStore::scripted(vec![
            (3, Fault::Enospc),
            (5, Fault::Eio),
        ]));
        let labels: Vec<String> = (0..5).map(|i| format!("j{i}")).collect();
        // Job i returns only once the appends of jobs 0..i have been
        // attempted, so append op 2 + i belongs to job i on any pool size.
        let mut jobs: Vec<Job> = labels
            .iter()
            .enumerate()
            .map(|(i, label)| {
                let (store, label) = (Arc::clone(&store), label.clone());
                Job::new(label.clone(), move || {
                    while store.ops() < FIRST_APPEND + i as u64 {
                        std::thread::yield_now();
                    }
                    stub_result(&label)
                })
            })
            .collect();
        jobs.push(Job::new("bad", || panic!("keeps the checkpoint")));
        let r1 = run_parallel_checkpointed_with(store.as_ref(), jobs, &path);
        assert!(
            r1[..5].iter().all(Result::is_ok),
            "append failures must not fail jobs"
        );
        let failed: Vec<&str> = store
            .injected()
            .iter()
            .map(|inj| labels[(inj.op - FIRST_APPEND) as usize].as_str())
            .collect();
        assert_eq!(failed, ["j1", "j3"]);

        // Resume: exactly the rows whose append failed re-run (plus the
        // job that failed outright), and the results match a clean run.
        let calls: Arc<Mutex<Vec<String>>> = Arc::default();
        let mk = |label: &str| {
            let (calls, label) = (Arc::clone(&calls), label.to_string());
            Job::new(label.clone(), move || {
                calls.lock().unwrap().push(label.clone());
                stub_result(&label)
            })
        };
        let all: Vec<&str> = labels.iter().map(String::as_str).chain(["bad"]).collect();
        let r2 = run_parallel_checkpointed_with(
            store.as_ref(),
            all.iter().map(|l| mk(l)).collect(),
            &path,
        );
        let mut reran = calls.lock().unwrap().clone();
        reran.sort();
        let mut expected = [failed, vec!["bad"]].concat();
        expected.sort_unstable();
        assert_eq!(reran, expected);
        let clean = run_parallel_results(all.iter().map(|l| mk(l)).collect());
        assert_eq!(digest_of(&r2), digest_of(&clean));
        assert!(!store.exists(&path), "green sweep still cleans up");
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_count_honors_rair_threads() {
        // Explicit override wins, clamped to >= 1 and <= jobs.
        assert_eq!(worker_count_from(Some("3"), 10), 3);
        assert_eq!(worker_count_from(Some(" 2 "), 10), 2);
        assert_eq!(worker_count_from(Some("0"), 10), 1);
        assert_eq!(worker_count_from(Some("64"), 5), 5);
        // Garbage falls back to available parallelism (bounded by jobs).
        let fallback = worker_count_from(Some("not-a-number"), 1000);
        assert!(fallback >= 1);
        assert_eq!(worker_count_from(None, 1), 1);
    }

    #[test]
    fn unparseable_rair_threads_warns_with_value_and_fallback() {
        // Garbage values surface a warning naming both the bad value and
        // the worker count actually used...
        let (count, warning) = resolve_worker_count(Some("not-a-number"), 1000);
        let w = warning.expect("unparseable RAIR_THREADS must warn");
        assert!(
            w.contains("RAIR_THREADS"),
            "warning names the variable: {w}"
        );
        assert!(
            w.contains("not-a-number"),
            "warning names the bad value: {w}"
        );
        assert!(
            w.contains(&count.to_string()),
            "warning names the fallback: {w}"
        );
        // ...while the valid, absent, and clamped paths stay silent.
        assert_eq!(resolve_worker_count(Some("3"), 10), (3, None));
        assert_eq!(resolve_worker_count(Some("0"), 10), (1, None));
        assert!(resolve_worker_count(None, 8).1.is_none());
    }
}
