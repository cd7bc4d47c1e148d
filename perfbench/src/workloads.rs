//! The three workloads. Each runs once per process, so the process-global
//! admission and saturation-memory caches start empty every time.
//!
//! Set-up (`setup_s`) ends where the first simulated cycle starts. The
//! untraced run makes exactly the calls the traced run makes; tracing only
//! adds the spans around them (and, for `serve_jobs`, swaps `StdStore` for
//! a [`TimingStore`] that delegates to it).

use crate::jobs::{self, SplitMix64};
use crate::store::{OpClass, TimingStore};
use crate::{cpu_time_s, host_parallelism, since_start, trace};
use experiments::bench_kernel::NOMINAL_SAT;
use experiments::figs::fig14;
use experiments::runner::ExpConfig;
use experiments::service::{serve, sim_exec, std_store, JobExec, JobSpec, JobStatus};
use experiments::service::{ServeConfig, ServeReport, StdStore, Store};
use experiments::sweep::{admission_gate_stats, build_network, saturation_cache_stats};
use noc_sim::admit::admit_network_cached;
use noc_sim::config::SimConfig;
use noc_sim::region::RegionMap;
use noc_sim::topology::TopologyKind;
use rair::scheme::{Routing, Scheme};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use traffic::scenario::two_app;

pub const WORKLOADS: [&str; 3] = ["fig14_cold", "torus32_single", "serve_jobs"];

/// What one iteration of a workload did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds from process start to the first simulated cycle.
    pub setup_s: f64,
    /// Seconds from process start to the end of the workload's work.
    pub wall_s: f64,
    /// Simulations (or jobs) attempted.
    pub attempted: u64,
    /// Attempts that errored or were quarantined. A digest mismatch is
    /// judged by the caller, which holds the expected digests.
    pub failed: u64,
    /// The workload's output digest.
    pub digest: u64,
    /// Internal consistency checks that failed.
    pub problems: Vec<String>,
    /// Per-layer metrics (the timing ones are filled by the traced run).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Simulations one iteration attempts, used when the workload panicked
/// before it could report.
pub fn attempted(workload: &str) -> u64 {
    match workload {
        "fig14_cold" => (FIG14_SCHEMES + FIG14_SEARCHES) as u64,
        "torus32_single" => 1,
        _ => 2 * jobs::TOTAL_JOBS as u64,
    }
}

/// Workloads whose set-up can run on its own (`serve_jobs` sets up inside
/// the service, so it is timed only as part of full iterations).
pub const SETUP_ONLY: [&str; 2] = ["fig14_cold", "torus32_single"];

/// Run `workload` once; `dir` is a fresh directory for its state. With
/// `setup_only`, stop where the first simulated cycle would start.
pub fn run(workload: &str, seed: u64, dir: &Path, setup_only: bool) -> Outcome {
    assert!(
        !setup_only || SETUP_ONLY.contains(&workload),
        "{workload} has no set-up-only mode"
    );
    match workload {
        "fig14_cold" => fig14_cold(seed, setup_only),
        "torus32_single" => torus32_single(seed, setup_only),
        "serve_jobs" => serve_jobs(seed, dir),
        other => panic!("unknown workload {other}"),
    }
}

/// The experiment seed handed to the library, derived from `--seed`.
fn exp_seed(seed: u64) -> u64 {
    SplitMix64::new(seed).next_u64()
}

/// Compared schemes and saturation searches of Figure 14.
const FIG14_SCHEMES: usize = 4;
const FIG14_SEARCHES: usize = 6;

/// `fig14_cold`: Figure 14 on quick windows from an empty saturation cache
/// (the shape of `repro all`): six saturation searches, then the four
/// compared schemes on the 8×8 mesh through `runner::run_parallel`.
///
/// Set-up is input generation plus cold admission of the four compared
/// configurations (the sweep's own admissions then hit the process cache).
fn fig14_cold(seed: u64, setup_only: bool) -> Outcome {
    let ec = trace::span("setup", || {
        let ec = trace::span("build.input", || ExpConfig {
            seed: exp_seed(seed),
            ..ExpConfig::quick()
        });
        trace::span("build.admit", || {
            let cfg = SimConfig::table1();
            let region = RegionMap::six_regions(&cfg);
            // The admission key ignores RO_Rank's intensities.
            let compared = [
                (Scheme::RoRr, Routing::Local),
                (Scheme::RoRr, Routing::Dbar),
                (Scheme::ro_rank(vec![0.0; 6]), Routing::Local),
                (Scheme::rair(), Routing::Local),
            ];
            for (scheme, routing) in compared {
                admit_network_cached(&cfg, &region, routing.build().as_ref(), &scheme.automaton());
            }
        });
        ec
    });
    let mut out = Outcome {
        setup_s: since_start(),
        attempted: attempted("fig14_cold"),
        ..Outcome::default()
    };
    if setup_only {
        out.wall_s = out.setup_s;
        return out;
    }
    let (sat0, adm0) = (saturation_cache_stats(), admission_gate_stats());
    let res = if trace::enabled() {
        let cpu0 = cpu_time_s();
        let (_, sat_s) = timed("sweep.sat", || fig14::six_app_rates(&ec));
        let cpu1 = cpu_time_s();
        let (res, sweep_s) = timed("runner.sweep", || fig14::run(&ec));
        let cpu2 = cpu_time_s();
        let util = |c0: Option<f64>, c1: Option<f64>, s: f64| match (c0, c1) {
            (Some(a), Some(b)) => (b - a) / (s * host_parallelism() as f64),
            _ => f64::NAN,
        };
        out.layers.insert("sweep.sat_s", sat_s);
        out.layers.insert("runner.sweep_s", sweep_s);
        out.layers
            .insert("runner.cpu_util_sat", util(cpu0, cpu1, sat_s));
        out.layers
            .insert("runner.cpu_util_sweep", util(cpu1, cpu2, sweep_s));
        res
    } else {
        fig14::run(&ec)
    };
    out.wall_s = since_start();

    let (sat1, adm1) = (saturation_cache_stats(), admission_gate_stats());
    let (cold, warmed) = ((sat1.3 - sat0.3) as f64, (sat1.2 - sat0.2) as f64);
    out.layers.insert("sweep.sat_cold", cold);
    out.layers.insert("sweep.sat_warmed", warmed);
    out.layers
        .insert("sweep.sat_mem_hits", (sat1.0 - sat0.0) as f64);
    out.layers
        .insert("sweep.sat_disk_hits", (sat1.1 - sat0.1) as f64);
    out.layers
        .insert("sweep.sat_warm_ratio", warmed / (warmed + cold));
    out.layers
        .insert("sweep.admit_consults", (adm1.0 - adm0.0) as f64);
    out.layers
        .insert("sweep.admit_rejects", (adm1.1 - adm0.1) as f64);
    if cold + warmed != FIG14_SEARCHES as f64 {
        out.problems.push(format!(
            "expected {FIG14_SEARCHES} saturation searches from an empty cache, saw {}",
            cold + warmed
        ));
    }

    let mut d = metrics::Digest::new();
    for (label, apl) in &res.schemes {
        d.write_str(label);
        for &a in apl {
            if !(a.is_finite() && a > 0.0) {
                out.problems
                    .push(format!("{label}: APL {a} is not a positive latency"));
            }
            d.write_f64(a);
        }
    }
    if res.schemes.len() != FIG14_SCHEMES {
        out.problems
            .push(format!("{} schemes reported", res.schemes.len()));
    }
    out.digest = d.finish();
    out
}

/// Windows of the `torus32_single` run.
const TORUS_WARMUP: u64 = 1_000;
const TORUS_MEASURE: u64 = 5_000;

/// `torus32_single`: one 32×32 torus simulation (1024 routers), RAIR with
/// DBAR routing, the two-application halves layout at p = 0.3 and 10 % of
/// the nominal saturation load. A single simulation, so job-level
/// parallelism cannot help; only the kernel (or shards) can.
fn torus32_single(seed: u64, setup_only: bool) -> Outcome {
    let cfg = SimConfig {
        topology: TopologyKind::Torus,
        width: 32,
        height: 32,
        ..SimConfig::table1()
    };
    let (scheme, routing) = (Scheme::rair(), Routing::Dbar);
    let rate = 0.1 * NOMINAL_SAT;
    let ((mut net, admitted), input_s, admit_s, network_s) = trace::span("setup", || {
        let ((region, scenario), input_s) = timed("build.input", || two_app(&cfg, 0.3, rate, rate));
        let (adm, admit_s) = timed("build.admit", || {
            admit_network_cached(&cfg, &region, routing.build().as_ref(), &scheme.automaton())
        });
        let (net, network_s) = timed("build.network", || {
            build_network(
                &cfg,
                &region,
                &scheme,
                routing,
                Box::new(scenario),
                exp_seed(seed),
            )
        });
        ((net, adm.is_admitted()), input_s, admit_s, network_s)
    });
    let mut out = Outcome {
        setup_s: since_start(),
        attempted: 1,
        ..Outcome::default()
    };
    if !admitted {
        out.problems
            .push("RAIR/DBAR on the 32x32 torus was not admitted".into());
    }
    if setup_only {
        out.wall_s = out.setup_s;
        return out;
    }
    let ((), run_s) = timed("kernel.run", || {
        net.run_warmup_measure(TORUS_WARMUP, TORUS_MEASURE);
    });
    out.wall_s = since_start();

    let delivered = net.stats.recorder.delivered();
    if delivered == 0 {
        out.problems.push("no packet was delivered".into());
    }
    let router_cycles = (net.cycle() * net.cfg.num_routers() as u64) as f64;
    if trace::enabled() {
        out.layers.insert("build.input_s", input_s);
        out.layers.insert("build.admit_s", admit_s);
        out.layers.insert("build.network_s", network_s);
        out.layers.insert("kernel.run_s", run_s);
        out.layers
            .insert("kernel.router_cycles_per_s", router_cycles / run_s);
    }
    out.layers.insert(
        "kernel.router_cycles_skipped",
        net.stats.router_cycles_skipped as f64,
    );
    out.layers.insert(
        "kernel.idle_cycles_skipped",
        net.stats.idle_cycles_skipped as f64,
    );
    out.layers.insert("kernel.delivered", delivered as f64);
    out.digest = net.stats.digest();
    out
}

/// First entry into the job executor (the first simulated cycle follows
/// the network build inside it) and the summed time inside it.
static FIRST_EXEC_S: OnceLock<f64> = OnceLock::new();
static EXEC_NS: AtomicU64 = AtomicU64::new(0);

/// `sim_exec` with the first-entry mark; traced, it also times each call.
fn marked_exec() -> JobExec {
    let inner = sim_exec();
    Arc::new(move |spec: &JobSpec, ec: &ExpConfig| {
        FIRST_EXEC_S.get_or_init(since_start);
        if !trace::enabled() {
            return inner(spec, ec);
        }
        let t = Instant::now();
        let r = trace::span("exec.job", || inner(spec, ec));
        EXEC_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    })
}

/// [`trace::span`] that also returns the call's duration.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = trace::span(name, f);
    (v, t.elapsed().as_secs_f64())
}

fn count(report: &ServeReport, status: JobStatus) -> usize {
    report
        .outcomes
        .iter()
        .filter(|o| o.status == status)
        .count()
}

/// `serve_jobs`: a seeded jobs file through `service::serve` with
/// `StdStore` into a fresh directory, then the same file again from that
/// directory (the resumed pass, which replays what the fresh pass wrote).
fn serve_jobs(seed: u64, dir: &Path) -> Outcome {
    let parsed = trace::span("setup", || {
        trace::span("build.input", || {
            JobSpec::parse_jobs(&jobs::jobs_file(seed))
        })
    });
    let mut out = Outcome {
        attempted: attempted("serve_jobs"),
        ..Outcome::default()
    };
    let specs = match parsed {
        Ok(specs) => specs,
        Err(e) => {
            out.failed = out.attempted;
            out.problems
                .push(format!("generated jobs file does not parse: {e}"));
            return out;
        }
    };
    let ec = ExpConfig {
        warmup: 200,
        measure: 1_000,
        seed: exp_seed(seed),
        quick: true,
        cycle_budget: None,
        prune: false,
    };
    let scfg = ServeConfig::new(dir.join("serve"), ec);
    let exec = marked_exec();
    let timing = TimingStore::new(StdStore);
    let store: &dyn Store = if trace::enabled() {
        &timing
    } else {
        std_store()
    };
    let (fresh, fresh_s) = timed("serve.fresh", || serve(store, &specs, &scfg, &exec));
    let (resume, resume_s) = timed("serve.resume", || serve(store, &specs, &scfg, &exec));
    out.wall_s = since_start();
    out.setup_s = FIRST_EXEC_S.get().copied().unwrap_or(out.wall_s);

    let quarantined = fresh.quarantined() + resume.quarantined();
    out.failed = quarantined as u64;
    let rejected = [&fresh, &resume].map(|r| count(r, JobStatus::Rejected));
    let checks = [
        (
            fresh.sweep_digest == resume.sweep_digest,
            format!(
                "resumed sweep digest {:016x} != fresh {:016x}",
                resume.sweep_digest, fresh.sweep_digest
            ),
        ),
        (
            fresh.executed == jobs::UNIQUE_JOBS && resume.executed == 0,
            format!(
                "executed {} fresh, {} resumed",
                fresh.executed, resume.executed
            ),
        ),
        (
            resume.resumed == jobs::UNIQUE_JOBS + jobs::REJECTED_JOBS,
            format!("resumed pass restored {} jobs", resume.resumed),
        ),
        (
            fresh.cache_hits == jobs::DUPLICATES,
            format!(
                "{} dedup hits for {} duplicates",
                fresh.cache_hits,
                jobs::DUPLICATES
            ),
        ),
        (
            rejected == [jobs::REJECTED_JOBS; 2],
            format!("admission rejected {rejected:?} jobs (fresh, resumed)"),
        ),
    ];
    out.problems.extend(
        checks
            .into_iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, what)| what),
    );

    if trace::enabled() {
        out.layers.insert("serve.fresh_s", fresh_s);
        out.layers.insert("serve.resume_s", resume_s);
        out.layers.insert(
            "serve.exec_s",
            EXEC_NS.load(Ordering::Relaxed) as f64 * 1e-9,
        );
        for class in OpClass::ALL {
            let (n, s) = timing.stat(class);
            let (n_name, s_name) = class.metric_names();
            out.layers.insert(n_name, n as f64);
            out.layers.insert(s_name, s);
        }
    }
    out.layers.insert("serve.executed", fresh.executed as f64);
    out.layers.insert("serve.resumed", resume.resumed as f64);
    out.layers
        .insert("serve.cache_hits", fresh.cache_hits as f64);
    out.layers.insert("serve.rejected", rejected[0] as f64);
    out.layers.insert("serve.quarantined", quarantined as f64);
    out.layers.insert(
        "journal.write_errors",
        (fresh.journal_write_errors + resume.journal_write_errors) as f64,
    );
    let (adm_consults, adm_rejects) = admission_gate_stats();
    out.layers
        .insert("sweep.admit_consults", adm_consults as f64);
    out.layers.insert("sweep.admit_rejects", adm_rejects as f64);
    out.digest = fresh.sweep_digest;
    out
}
