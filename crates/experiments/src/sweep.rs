//! Shared experiment plumbing: network construction from (scheme, routing)
//! and a two-level (memory + disk) saturation-load cache.
//!
//! The paper expresses all synthetic loads as a percentage of each
//! application's saturation load. Saturation measurement is itself a
//! binary-search of simulations, so results are cached — keyed by a
//! [`metrics::Digest`] folded over the actual measurement parameters
//! `(probe, cfg, region assignment, app, spec)`, never by the
//! caller-supplied label, so two call sites can never share a stale load by
//! reusing a label string. The label is kept for diagnostics only.
//!
//! The disk layer persists each measured load under `results/cache/` (one
//! CRC-framed record per key, read and written through the service
//! [`Store`]; override the directory with `RAIR_CACHE_DIR`), so a
//! second `repro` invocation performs **zero** binary searches for loads it
//! has already measured. The in-memory layer is bounded (FIFO eviction) so
//! an unbounded sweep cannot grow the process without limit. Lookups are
//! batched ([`try_cached_saturations`]): a figure's cache misses run
//! concurrently on the sweep worker pool, bit-identically to serial ones.

use crate::runner::ExpConfig;
use crate::service::record::{self, SAT_TAG};
use crate::service::{std_store, Store};
use noc_sim::config::SimConfig;
use noc_sim::network::Network;
use noc_sim::region::RegionMap;
use noc_sim::source::TrafficSource;
use rair::scheme::{Routing, Scheme};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use traffic::saturation::{app_saturation_traced, SaturationProbe, SearchOutcome, WarmOutcome};
use traffic::scenario::AppSpec;

/// Build a network from the scheme/routing matrix plus a traffic source.
///
/// Every construction first consults the static admission pipeline's
/// process-wide cache ([`noc_sim::admit::admit_network_cached`]) — the
/// pre-simulation gate of the sweep runner. A statically rejected scheme
/// is still simulated (the paper deliberately measures the
/// `RAIR_ForeignH` priority inversion as an ablation) but the rejection
/// is logged once per scheme and counted; [`admission_gate_stats`]
/// exposes the counters so drivers and tests can assert the gate ran.
pub fn build_network(
    cfg: &SimConfig,
    region: &RegionMap,
    scheme: &Scheme,
    routing: Routing,
    source: Box<dyn TrafficSource>,
    seed: u64,
) -> Network {
    let alg = routing.build();
    let adm = noc_sim::admit::admit_network_cached(cfg, region, alg.as_ref(), &scheme.automaton());
    ADMIT_CONSULTS.fetch_add(1, Ordering::Relaxed);
    if !adm.is_admitted() {
        ADMIT_REJECTS.fetch_add(1, Ordering::Relaxed);
        let mut warned = admit_warned()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if warned.insert(adm.scheme.clone()) {
            eprintln!(
                "[admit] {} rejected statically — simulating anyway (measured ablation): {}",
                adm.scheme,
                adm.rejection()
                    .map(|p| p.detail.clone())
                    .unwrap_or_default()
            );
        }
    }
    Network::new(
        cfg.clone(),
        region.clone(),
        alg,
        scheme.build(),
        source,
        seed,
    )
}

/// Admission-gate counters.
static ADMIT_CONSULTS: AtomicU64 = AtomicU64::new(0);
static ADMIT_REJECTS: AtomicU64 = AtomicU64::new(0);

/// Schemes already warned about (one log line per scheme per process).
fn admit_warned() -> &'static Mutex<std::collections::BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<std::collections::BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(std::collections::BTreeSet::new()))
}

/// Process-wide admission-gate counters: `(consultations, statically
/// rejected constructions)` since startup.
pub fn admission_gate_stats() -> (u64, u64) {
    (
        ADMIT_CONSULTS.load(Ordering::Relaxed),
        ADMIT_REJECTS.load(Ordering::Relaxed),
    )
}

/// In-memory cache capacity; evicted entries survive on disk.
const MEM_CACHE_CAP: usize = 256;

/// Bounded FIFO map: the in-memory layer of the saturation cache.
struct MemCache {
    map: BTreeMap<u64, f64>,
    order: VecDeque<u64>,
}

impl MemCache {
    fn insert(&mut self, key: u64, value: f64) {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
            while self.order.len() > MEM_CACHE_CAP {
                let evict = self.order.pop_front().unwrap();
                self.map.remove(&evict);
            }
        }
    }
}

const MEM_POISONED: &str = "saturation memory cache poisoned";

fn sat_cache() -> &'static Mutex<MemCache> {
    static CACHE: OnceLock<Mutex<MemCache>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(MemCache {
            map: BTreeMap::new(),
            order: VecDeque::new(),
        })
    })
}

/// Where a saturation value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatLookup {
    /// Served from the process-wide in-memory cache.
    MemHit,
    /// Loaded from the persistent disk cache.
    DiskHit,
    /// Measured by a model-warm-started binary search whose bracket
    /// verified against the simulator (bit-identical to a cold search,
    /// at a fraction of the simulations).
    Warmed,
    /// Measured by a cold binary search (no model hint, or the hint was
    /// rejected by bracket verification).
    Searched,
}

/// Cumulative lookup counters.
static MEM_HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static WARMED_SEARCHES: AtomicU64 = AtomicU64::new(0);
static COLD_SEARCHES: AtomicU64 = AtomicU64::new(0);
/// Disk entries that failed to parse or failed their CRC and were set
/// aside as `*.corrupt` (each one degraded to a re-search, never a panic
/// or a wrong value).
static CACHE_CORRUPT: AtomicU64 = AtomicU64::new(0);

/// Corrupt disk-cache entries detected (and set aside) since startup.
pub fn saturation_cache_corrupt_count() -> u64 {
    CACHE_CORRUPT.load(Ordering::Relaxed)
}

/// Process-wide saturation-cache counters: `(mem_hits, disk_hits,
/// warmed_searches, cold_searches)` since startup.
pub fn saturation_cache_stats() -> (u64, u64, u64, u64) {
    (
        MEM_HITS.load(Ordering::Relaxed),
        DISK_HITS.load(Ordering::Relaxed),
        WARMED_SEARCHES.load(Ordering::Relaxed),
        COLD_SEARCHES.load(Ordering::Relaxed),
    )
}

/// A saturation search that produced no usable load (collapsed to zero or
/// a non-finite value). Raised as a structured error so the panic-safe
/// runner turns one degenerate configuration into a reported job failure
/// instead of aborting the whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationError {
    /// The caller-supplied diagnostic label of the search.
    pub label: String,
    /// The application whose saturation was being measured.
    pub app: u8,
    /// The degenerate measured value.
    pub load: f64,
}

impl std::fmt::Display for SaturationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "saturation search collapsed to {} for {} (app {})",
            self.load, self.label, self.app
        )
    }
}

impl std::error::Error for SaturationError {}

/// Canonical cache key: a collision-resistant digest folded over every
/// parameter the measured saturation load depends on. Unlike the earlier
/// `Debug`-string key, each component is written through the pinned
/// [`metrics::Digest`] with explicit discriminants and length prefixes, so
/// the key is stable across Rust versions and derive-order changes.
fn sat_digest(
    probe: &SaturationProbe,
    cfg: &SimConfig,
    region: &RegionMap,
    app: u8,
    spec: &AppSpec,
) -> u64 {
    let mut d = metrics::Digest::new();
    // Domain tag ("RAIRSAT" + version) so these keys can never collide
    // with another digest family reusing the same hash.
    d.write_u64(0x5241_4952_5341_5401);
    probe.digest_into(&mut d);
    cfg.digest_into(&mut d);
    d.write_u64(cfg.num_nodes() as u64);
    for n in 0..cfg.num_nodes() as u16 {
        d.write_u64(region.app_of(n) as u64);
    }
    d.write_u64(app as u64);
    spec.digest_into(&mut d);
    d.finish()
}

/// Directory of the persistent cache: `RAIR_CACHE_DIR` if set, else
/// `results/cache` relative to the working directory.
fn cache_dir() -> PathBuf {
    std::env::var_os("RAIR_CACHE_DIR")
        .map_or_else(|| PathBuf::from("results").join("cache"), PathBuf::from)
}

fn cache_path(key: u64) -> PathBuf {
    cache_dir().join(format!("sat_{key:016x}.txt"))
}

/// One cache entry's record payload: the load's bit pattern, then the
/// caller's label for humans (never part of the key).
fn parse_entry(payload: &str) -> Option<f64> {
    let hex = payload.split('\t').next()?;
    let v = record::parse_f64_field(hex)?;
    v.is_finite().then_some(v)
}

/// Read a cached value through `store`. An entry that fails its frame or
/// CRC is a counted **miss**, set aside by [`record::load`] — a damaged
/// cache can cost simulations, never correctness.
pub(crate) fn disk_read(store: &dyn Store, key: u64) -> Option<f64> {
    let path = cache_path(key);
    record::load(store, &path, SAT_TAG, parse_entry, &CACHE_CORRUPT)
}

/// Persist a value as one framed record. Written through
/// [`Store::write_atomic`], whose temp file is unique per write, so
/// concurrent searches of one key (in this process or another) and
/// interrupted runs can never leave a torn entry or fail each other's
/// commit.
pub(crate) fn disk_write(
    store: &dyn Store,
    key: u64,
    value: f64,
    label: &str,
) -> std::io::Result<()> {
    let payload = format!("{}\t{}", record::f64_field(value), record::esc_label(label));
    store.create_dir_all(&cache_dir())?;
    record::save(store, &cache_path(key), SAT_TAG, &payload)
}

/// Is model warm-starting of saturation searches disabled? The
/// `RAIR_COLD_SAT` kill switch (any non-empty value but `0`) forces every
/// search cold — warm and cold return bit-identical loads, so this only
/// matters for probe-count comparisons and distrust of the model.
fn cold_searches_forced() -> bool {
    std::env::var("RAIR_COLD_SAT").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One saturation lookup: application `app` running alone with traffic
/// mix `spec` on `region` (round-robin arbitration, local adaptive
/// routing). `label` is used only in diagnostics and the cache entry's
/// label field; the cache key is derived from the other fields.
#[derive(Debug, Clone)]
pub struct SatQuery<'a> {
    pub label: String,
    pub cfg: &'a SimConfig,
    pub region: &'a RegionMap,
    pub app: u8,
    pub spec: &'a AppSpec,
}

/// How step 1 of [`try_cached_saturations`] resolved one query.
enum Resolved {
    Mem(f64),
    Disk(f64),
    /// Same key as the earlier query at this index: answered by its result.
    Dup(usize),
    Miss,
}

/// Run one query's binary search, warm-started from the analytical
/// model's prediction ([`model::warm_hint`]) unless `RAIR_COLD_SAT` forces
/// it cold.
fn search(probe: &SaturationProbe, q: &SatQuery) -> SearchOutcome {
    let warm = if cold_searches_forced() {
        None
    } else {
        model::warm_hint(q.cfg, q.region, q.app, q.spec, model::RoutingKind::Adaptive)
    };
    app_saturation_traced(probe, q.cfg, q.region, q.app, q.spec, warm, || {
        Routing::Local.build()
    })
}

/// Saturation loads of a batch of queries, plus where each value came
/// from, in query order. The one lookup path of the saturation cache:
///
/// 1. every query's key is computed and memory, then disk, hits are
///    resolved in query order (a key repeated within the batch is answered
///    by its first occurrence and counts as a memory hit);
/// 2. the distinct misses run on the sweep worker pool
///    ([`crate::runner::pool_map`], `RAIR_THREADS` caps it);
/// 3. results enter the memory and disk layers in query order.
///
/// Each search owns its probe seed and builds a fresh network per probe,
/// so concurrent searches return the loads, counters and cache contents
/// of a serial run bit for bit (`RAIR_THREADS=1` *is* the serial run).
/// The model warm start verifies its bracket against the simulator and
/// falls back to the cold path when rejected, so the returned load is
/// bit-identical either way.
///
/// A degenerate search yields `Err` at its index. A search that panics is
/// re-raised on the calling thread — label and app prepended — after
/// every sibling has finished and been cached.
pub fn try_cached_saturations(
    ec: &ExpConfig,
    queries: &[SatQuery],
) -> Vec<Result<(f64, SatLookup), SaturationError>> {
    lookup(std_store(), ec, queries)
}

/// [`try_cached_saturations`] with the disk layer on `store`.
pub(crate) fn lookup(
    store: &dyn Store,
    ec: &ExpConfig,
    queries: &[SatQuery],
) -> Vec<Result<(f64, SatLookup), SaturationError>> {
    let probe = if ec.quick {
        SaturationProbe::quick()
    } else {
        SaturationProbe::default()
    };
    let keys: Vec<u64> = queries
        .iter()
        .map(|q| sat_digest(&probe, q.cfg, q.region, q.app, q.spec))
        .collect();
    let mut first_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut resolved = Vec::with_capacity(queries.len());
    for (i, &key) in keys.iter().enumerate() {
        let hit = sat_cache()
            .lock()
            .expect(MEM_POISONED)
            .map
            .get(&key)
            .copied();
        resolved.push(if let Some(&first) = first_of.get(&key) {
            Resolved::Dup(first)
        } else if let Some(v) = hit {
            Resolved::Mem(v)
        } else if let Some(v) = disk_read(store, key) {
            Resolved::Disk(v)
        } else {
            Resolved::Miss
        });
        first_of.entry(key).or_insert(i);
    }
    let misses: Vec<usize> = (0..queries.len())
        .filter(|&i| matches!(resolved[i], Resolved::Miss))
        .collect();
    // Misses are in query order, so the outcomes are consumed in step.
    let mut searched = crate::runner::pool_map(misses, |i| {
        catch_unwind(AssertUnwindSafe(|| search(&probe, &queries[i])))
    })
    .into_iter();

    let mut out: Vec<Result<(f64, SatLookup), SaturationError>> = Vec::with_capacity(queries.len());
    let mut panicked = None;
    for (i, (q, &key)) in queries.iter().zip(&keys).enumerate() {
        let r = match resolved[i] {
            Resolved::Mem(v) => {
                MEM_HITS.fetch_add(1, Ordering::Relaxed);
                Ok((v, SatLookup::MemHit))
            }
            Resolved::Disk(v) => {
                DISK_HITS.fetch_add(1, Ordering::Relaxed);
                sat_cache().lock().expect(MEM_POISONED).insert(key, v);
                Ok((v, SatLookup::DiskHit))
            }
            Resolved::Dup(first) => match &out[first] {
                Ok((v, _)) => {
                    MEM_HITS.fetch_add(1, Ordering::Relaxed);
                    Ok((*v, SatLookup::MemHit))
                }
                Err(e) => Err(SaturationError {
                    label: q.label.clone(),
                    ..e.clone()
                }),
            },
            Resolved::Miss => match searched.next().expect("one outcome per miss") {
                Ok(found) => {
                    let lookup = if found.warm == WarmOutcome::Accepted {
                        WARMED_SEARCHES.fetch_add(1, Ordering::Relaxed);
                        SatLookup::Warmed
                    } else {
                        COLD_SEARCHES.fetch_add(1, Ordering::Relaxed);
                        SatLookup::Searched
                    };
                    validate_sat(&q.label, q.app, found.load)
                        .inspect(|&sat| {
                            sat_cache().lock().expect(MEM_POISONED).insert(key, sat);
                            // The cache is an optimization, not a
                            // dependency: a failed write costs a re-search.
                            if let Err(e) = disk_write(store, key, sat, &q.label) {
                                eprintln!(
                                    "[sweep] warning: could not persist saturation cache \
                                     entry sat_{key:016x}: {e}"
                                );
                            }
                        })
                        .map(|sat| (sat, lookup))
                }
                Err(payload) => {
                    panicked.get_or_insert_with(|| {
                        format!(
                            "saturation search for {} (app {}) panicked: {}",
                            q.label,
                            q.app,
                            crate::runner::panic_message(payload.as_ref())
                        )
                    });
                    // Never returned: the batch re-raises once every
                    // sibling is cached.
                    Err(SaturationError {
                        label: q.label.clone(),
                        app: q.app,
                        load: f64::NAN,
                    })
                }
            },
        };
        out.push(r);
    }
    if let Some(msg) = panicked {
        panic!("{msg}");
    }
    out
}

/// Reject a degenerate measured load (zero, negative, NaN, ∞) with the
/// structured error; a search can collapse to zero when even the smallest
/// probed rate is unstable (e.g. a mis-specified region with no eject
/// capacity).
fn validate_sat(label: &str, app: u8, sat: f64) -> Result<f64, SaturationError> {
    if sat > 0.0 && sat.is_finite() {
        Ok(sat)
    } else {
        Err(SaturationError {
            label: label.to_string(),
            app,
            load: sat,
        })
    }
}

/// [`try_cached_saturations`], panicking on the calling thread — after the
/// whole batch has finished and been cached — with the first degenerate
/// search's structured message. Figure drivers run inside the panic-safe
/// parallel runner, which downcasts string payloads — so a degenerate
/// configuration surfaces as one failed job with the label in its message,
/// not a sweep abort.
pub fn cached_saturations(ec: &ExpConfig, queries: &[SatQuery]) -> Vec<(f64, SatLookup)> {
    try_cached_saturations(ec, queries)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// [`cached_saturations`] for one query, without the provenance (the
/// common case for figure drivers).
pub fn cached_saturation(
    label: &str,
    ec: &ExpConfig,
    cfg: &SimConfig,
    region: &RegionMap,
    app: u8,
    spec: &AppSpec,
) -> f64 {
    let query = SatQuery {
        label: label.to_string(),
        cfg,
        region,
        app,
        spec,
    };
    cached_saturations(ec, &[query])[0].0
}

/// Clear the in-memory saturation cache (tests). Disk entries persist; use
/// `RAIR_CACHE_DIR` pointed at a temp directory to isolate tests from the
/// repository-level cache.
pub fn clear_saturation_cache() {
    let mut c = sat_cache().lock().unwrap();
    c.map.clear();
    c.order.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Job;
    use noc_sim::source::NoTraffic;
    use traffic::scenario::InterDest;

    /// Serializes tests that touch the process-wide cache layers or the
    /// `RAIR_CACHE_DIR` environment variable.
    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One query through the batch lookup, with its provenance.
    fn try_traced(
        label: &str,
        ec: &ExpConfig,
        cfg: &SimConfig,
        region: &RegionMap,
        app: u8,
        spec: &AppSpec,
    ) -> Result<(f64, SatLookup), SaturationError> {
        let query = SatQuery {
            label: label.to_string(),
            cfg,
            region,
            app,
            spec,
        };
        try_cached_saturations(ec, &[query]).pop().unwrap()
    }

    fn traced(
        label: &str,
        ec: &ExpConfig,
        cfg: &SimConfig,
        region: &RegionMap,
        app: u8,
        spec: &AppSpec,
    ) -> (f64, SatLookup) {
        try_traced(label, ec, cfg, region, app, spec).unwrap()
    }

    /// Point the disk cache at a unique temp directory for one test.
    struct TempCacheDir {
        dir: PathBuf,
    }

    impl TempCacheDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("rair-satcache-{}-{tag}", std::process::id()));
            // lint: allow(swallowed-io-error)
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::env::set_var("RAIR_CACHE_DIR", &dir);
            Self { dir }
        }
    }

    impl Drop for TempCacheDir {
        fn drop(&mut self) {
            std::env::remove_var("RAIR_CACHE_DIR");
            // lint: allow(swallowed-io-error)
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn degenerate_loads_become_structured_errors() {
        assert_eq!(validate_sat("lbl", 0, 0.375).unwrap(), 0.375);
        for bad in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let e = validate_sat("fig9/halves", 1, bad).unwrap_err();
            assert_eq!(e.label, "fig9/halves");
            assert_eq!(e.app, 1);
            let msg = e.to_string();
            assert!(
                msg.contains("collapsed") && msg.contains("fig9/halves"),
                "{msg}"
            );
        }
    }

    /// App 0 owns every node but one corner, which is app 1's region.
    /// With all of app 0's traffic bound outward, that corner's ejection
    /// port is overloaded at every probed rate, so the search collapses to
    /// zero.
    fn funnel_region(cfg: &SimConfig) -> RegionMap {
        RegionMap::from_fn(cfg, 2, |c| u8::from(c.x == 0 && c.y == 0))
    }

    /// A degenerate saturation search inside a sweep job surfaces as one
    /// labeled `JobError` carrying the structured message, while sibling
    /// jobs run to completion — the sweep does not abort. The failing job
    /// runs a real collapsing search through [`cached_saturations`], which
    /// re-raises the error on the job's own thread.
    #[test]
    fn saturation_error_is_survived_by_the_sweep_runner() {
        let healthy = || {
            let cfg = SimConfig::table1();
            let region = RegionMap::single(&cfg);
            let net = build_network(
                &cfg,
                &region,
                &Scheme::RoRr,
                Routing::Local,
                Box::new(NoTraffic),
                7,
            );
            let ec = ExpConfig {
                warmup: 50,
                measure: 100,
                ..ExpConfig::quick()
            };
            crate::runner::run_one("healthy", net, &ec)
        };
        let jobs = vec![
            Job::new("ok/before", healthy),
            Job::new("fig9/degenerate", || {
                let cfg = SimConfig::table1();
                let funnel = funnel_region(&cfg);
                let outward = AppSpec::with_inter(0.0, 1.0, InterDest::OutsideUniform);
                let query = SatQuery {
                    label: "fig9/degenerate".into(),
                    cfg: &cfg,
                    region: &funnel,
                    app: 0,
                    spec: &outward,
                };
                cached_saturations(&ExpConfig::quick(), &[query]);
                unreachable!("a collapsed search must panic")
            }),
            Job::new("ok/after", healthy),
        ];
        let results = crate::runner::run_parallel_results(jobs);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().label, "healthy");
        assert_eq!(results[2].as_ref().unwrap().label, "healthy");
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.label, "fig9/degenerate");
        assert!(
            err.message.contains("saturation search collapsed to 0")
                && err.message.contains("fig9/degenerate (app 0)"),
            "structured message lost: {}",
            err.message
        );
    }

    #[test]
    fn build_network_wires_scheme_and_routing() {
        let cfg = SimConfig::table1();
        let region = RegionMap::single(&cfg);
        let (consults0, _) = admission_gate_stats();
        let net = build_network(
            &cfg,
            &region,
            &Scheme::rair(),
            Routing::Dbar,
            Box::new(NoTraffic),
            1,
        );
        assert_eq!(net.policy_name(), "RA_RAIR");
        assert_eq!(net.routing_name(), "DBAR");
        // The admission cache was consulted before construction.
        let (consults1, _) = admission_gate_stats();
        assert!(consults1 > consults0);
    }

    /// The pre-simulation gate flags a statically rejected scheme but
    /// still constructs the network — the `RAIR_ForeignH` inversion is a
    /// measured ablation, not an error.
    #[test]
    fn admission_gate_counts_static_rejections() {
        let cfg = SimConfig::table1();
        let region = RegionMap::single(&cfg);
        let (_, rejects0) = admission_gate_stats();
        let net = build_network(
            &cfg,
            &region,
            &Scheme::rair_foreign_high(),
            Routing::Local,
            Box::new(NoTraffic),
            3,
        );
        assert_eq!(net.policy_name(), "RA_RAIR");
        let (_, rejects1) = admission_gate_stats();
        assert!(rejects1 > rejects0, "static rejection not counted");
    }

    #[test]
    fn saturation_cache_layers_and_zero_searches_on_rerun() {
        let _guard = env_lock();
        let _tmp = TempCacheDir::new("layers");
        clear_saturation_cache();
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg);
        let ec = ExpConfig::quick();
        let spec = AppSpec::intra_only(0.0);
        // Cold start: one real binary search (model-warmed or cold — warm
        // acceptance is bit-identical, so either outcome yields the same
        // load), persisted to disk.
        let (a, la) = traced("test/halves0", &ec, &cfg, &region, 0, &spec);
        assert!(
            matches!(la, SatLookup::Warmed | SatLookup::Searched),
            "{la:?}"
        );
        assert!(a > 0.05 && a < 1.0, "saturation {a}");
        // Same parameters under a different label: in-memory hit, identical
        // value.
        let (b, lb) = traced("other/label", &ec, &cfg, &region, 0, &spec);
        assert_eq!(lb, SatLookup::MemHit);
        assert_eq!(a, b);
        // Fresh process simulated by clearing the memory layer: the disk
        // entry answers — a second `repro` run performs zero searches.
        clear_saturation_cache();
        let (c, lc) = traced("rerun", &ec, &cfg, &region, 0, &spec);
        assert_eq!(lc, SatLookup::DiskHit);
        assert_eq!(a.to_bits(), c.to_bits(), "disk roundtrip not bit-exact");
        // And it was promoted back into memory.
        let (_, ld) = traced("rerun2", &ec, &cfg, &region, 0, &spec);
        assert_eq!(ld, SatLookup::MemHit);
    }

    #[test]
    fn disk_entries_are_atomic_and_readable() {
        let _guard = env_lock();
        let _tmp = TempCacheDir::new("atomic");
        let store = std_store();
        disk_write(store, 0xDEAD_BEEF, 0.314159, "demo/label").unwrap();
        let v = disk_read(store, 0xDEAD_BEEF).unwrap();
        assert_eq!(v.to_bits(), 0.314159f64.to_bits());
        // No stray temp files remain after a completed write.
        let leftovers: Vec<_> = std::fs::read_dir(cache_dir())
            .unwrap()
            .filter_map(std::result::Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "torn temp files: {leftovers:?}");
        // Garbage and unframed entries of earlier formats (a bare bit
        // pattern) are counted misses, not errors.
        let before = saturation_cache_corrupt_count();
        let legacy = format!("{:016x}\n# legacy comment\n", 0.25f64.to_bits());
        for (key, text) in [(0xBAD, "not-hex\n"), (0x1E6, legacy.as_str())] {
            std::fs::write(cache_path(key), text).unwrap();
            assert_eq!(disk_read(store, key), None);
            assert!(cache_path(key).with_extension("txt.corrupt").exists());
        }
        assert!(saturation_cache_corrupt_count() >= before + 2);
    }

    /// Satellite requirement: corrupting a *live* cache entry must cost a
    /// re-search, never correctness — the re-searched value is bit-identical,
    /// the damaged file is set aside as `*.corrupt`, and the event counted.
    #[test]
    fn corrupt_live_cache_entry_is_set_aside_and_research_is_identical() {
        let _guard = env_lock();
        let _tmp = TempCacheDir::new("corrupt-live");
        clear_saturation_cache();
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg);
        let ec = ExpConfig::quick();
        let spec = AppSpec::intra_only(0.0);
        let (v1, _) = traced("corrupt/live", &ec, &cfg, &region, 0, &spec);
        // Flip one byte inside the stored bit pattern of the live entry.
        let key = sat_digest(&SaturationProbe::quick(), &cfg, &region, 0, &spec);
        let path = cache_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(
            bytes.starts_with(SAT_TAG.as_bytes()),
            "entries are framed records"
        );
        // The value field follows the tag and the 8-hex CRC.
        bytes[SAT_TAG.len() + 10 + 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        clear_saturation_cache();
        let before = saturation_cache_corrupt_count();
        let (v2, how) = traced("corrupt/again", &ec, &cfg, &region, 0, &spec);
        assert!(
            matches!(how, SatLookup::Warmed | SatLookup::Searched),
            "corrupt entry must be a miss, got {how:?}"
        );
        assert_eq!(
            v1.to_bits(),
            v2.to_bits(),
            "re-search must reproduce the identical value"
        );
        assert_eq!(saturation_cache_corrupt_count(), before + 1);
        assert!(
            path.with_extension("txt.corrupt").exists(),
            "damaged entry set aside for post-mortems"
        );
    }

    /// Concurrent searches of one key each persist it: every write
    /// commits, the key holds exactly one valid entry whichever write
    /// lands last, and no writer's temp file survives.
    #[test]
    fn concurrent_disk_writes_of_one_key_leave_one_valid_entry() {
        let _guard = env_lock();
        let _tmp = TempCacheDir::new("concurrent-write");
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    // Labels of different lengths, so interleaved bytes
                    // from two writers could not pass the CRC.
                    let label = format!("writer/{}", "x".repeat(t));
                    disk_write(std_store(), 0x5EED, 0.4375, &label)
                        .expect("every concurrent write commits");
                });
            }
        });
        let names: Vec<String> = std::fs::read_dir(cache_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [format!("sat_{:016x}.txt", 0x5EED)], "{names:?}");
        assert_eq!(disk_read(std_store(), 0x5EED), Some(0.4375));
    }

    /// Figure 14's traffic mix: 75 % intra-region UR, 20 % global, 5 % MC.
    fn six_app_mix() -> AppSpec {
        AppSpec {
            rate_flits: 0.0,
            intra: 0.75,
            inter: 0.20,
            inter_dest: InterDest::OutsideUniform,
            mc: 0.05,
        }
    }

    /// Restores `RAIR_THREADS` to its value at construction.
    struct ThreadsVar(Option<std::ffi::OsString>);

    impl ThreadsVar {
        fn set(value: Option<&str>) -> Self {
            let saved = Self(std::env::var_os("RAIR_THREADS"));
            match value {
                Some(v) => std::env::set_var("RAIR_THREADS", v),
                None => std::env::remove_var("RAIR_THREADS"),
            }
            saved
        }
    }

    impl Drop for ThreadsVar {
        fn drop(&mut self) {
            match &self.0 {
                Some(v) => std::env::set_var("RAIR_THREADS", v),
                None => std::env::remove_var("RAIR_THREADS"),
            }
        }
    }

    /// A batch returns exactly what the same queries return one at a time,
    /// from an empty cache each: bit-identical loads, the same provenance,
    /// the same disk entries, one search per distinct key (duplicates under
    /// other labels are memory hits), serial or on the default pool.
    #[test]
    fn batch_is_bit_identical_to_sequential_single_queries() {
        let _guard = env_lock();
        let cfg = SimConfig::table1();
        let region = RegionMap::six_regions(&cfg);
        let mix = six_app_mix();
        let ec = ExpConfig::quick();
        let mut queries: Vec<SatQuery> = (0..6)
            .map(|a| SatQuery {
                label: format!("six/mix/app{a}"),
                cfg: &cfg,
                region: &region,
                app: a,
                spec: &mix,
            })
            .collect();
        for a in [1, 4] {
            queries.push(SatQuery {
                label: format!("dup/app{a}"),
                ..queries[a].clone()
            });
        }
        let run = |tag: &str, threads: Option<&str>, batch: bool| {
            let tmp = TempCacheDir::new(tag);
            let _threads = ThreadsVar::set(threads);
            clear_saturation_cache();
            let (mem0, _, warm0, cold0) = saturation_cache_stats();
            let got: Vec<(u64, SatLookup)> = if batch {
                cached_saturations(&ec, &queries)
            } else {
                queries
                    .iter()
                    .map(|q| traced(&q.label, &ec, q.cfg, q.region, q.app, q.spec))
                    .collect()
            }
            .into_iter()
            .map(|(v, how)| (v.to_bits(), how))
            .collect();
            let (mem1, _, warm1, cold1) = saturation_cache_stats();
            assert_eq!(
                warm1 - warm0 + cold1 - cold0,
                6,
                "{tag}: one search per distinct key"
            );
            assert_eq!(mem1 - mem0, 2, "{tag}: duplicates are memory hits");
            assert_eq!(
                got[6..],
                [(got[1].0, SatLookup::MemHit), (got[4].0, SatLookup::MemHit)]
            );
            let disk: BTreeMap<String, String> = std::fs::read_dir(&tmp.dir)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    let text = std::fs::read_to_string(e.path()).unwrap();
                    (e.file_name().to_string_lossy().into_owned(), text)
                })
                .collect();
            assert_eq!(disk.len(), 6, "{tag}: {disk:?}");
            (got, disk)
        };
        let sequential = run("seq", Some("1"), false);
        let serial_batch = run("batch-serial", Some("1"), true);
        let pooled_batch = run("batch-pool", None, true);
        assert_eq!(sequential, serial_batch);
        assert_eq!(sequential, pooled_batch);
    }

    /// A degenerate query fails alone: its index comes back as a labeled
    /// error (or, for a search that panics, the batch re-raises with label
    /// and app) while its siblings finish and are cached.
    #[test]
    fn failing_query_is_isolated_in_the_batch() {
        let _guard = env_lock();
        let _tmp = TempCacheDir::new("isolation");
        clear_saturation_cache();
        let cfg = SimConfig::table1();
        let halves = RegionMap::halves(&cfg);
        let quadrants = RegionMap::quadrants(&cfg);
        let funnel = funnel_region(&cfg);
        let intra = AppSpec::intra_only(0.0);
        let outward = AppSpec::with_inter(0.0, 1.0, InterDest::OutsideUniform);
        let ec = ExpConfig::quick();
        let query = |label: &str, region, app, spec| SatQuery {
            label: label.to_string(),
            cfg: &cfg,
            region,
            app,
            spec,
        };

        let out = try_cached_saturations(
            &ec,
            &[
                query("iso/collapse", &funnel, 0, &outward),
                query("iso/ok", &halves, 0, &intra),
            ],
        );
        let err = out[0].as_ref().unwrap_err();
        assert_eq!(
            (err.label.as_str(), err.app, err.load),
            ("iso/collapse", 0, 0.0)
        );
        let &(ok, _) = out[1].as_ref().unwrap();
        clear_saturation_cache();
        let (again, how) = try_traced("iso/ok", &ec, &cfg, &halves, 0, &intra).unwrap();
        assert_eq!((again.to_bits(), how), (ok.to_bits(), SatLookup::DiskHit));

        // Application 7 has no nodes: its search panics.
        let raised = catch_unwind(AssertUnwindSafe(|| {
            try_cached_saturations(
                &ec,
                &[
                    query("iso/ghost", &halves, 7, &intra),
                    query("iso/sibling", &quadrants, 0, &intra),
                ],
            )
        }))
        .unwrap_err();
        let msg = crate::runner::panic_message(raised.as_ref());
        assert!(msg.contains("iso/ghost") && msg.contains("app 7"), "{msg}");
        let (_, how) = try_traced("iso/sibling", &ec, &cfg, &quadrants, 0, &intra).unwrap();
        assert_eq!(
            how,
            SatLookup::MemHit,
            "sibling of a panicking search is cached"
        );
    }

    #[test]
    fn memory_layer_is_bounded() {
        let mut cache = MemCache {
            map: BTreeMap::new(),
            order: VecDeque::new(),
        };
        for k in 0..(MEM_CACHE_CAP as u64 + 50) {
            cache.insert(k, k as f64);
        }
        assert_eq!(cache.map.len(), MEM_CACHE_CAP);
        assert_eq!(cache.order.len(), MEM_CACHE_CAP);
        // FIFO: the oldest keys were evicted, the newest survive.
        assert!(!cache.map.contains_key(&0));
        assert!(cache.map.contains_key(&(MEM_CACHE_CAP as u64 + 49)));
        // Re-inserting an existing key must not duplicate its order slot.
        let before = cache.order.len();
        cache.insert(MEM_CACHE_CAP as u64 + 49, 1.0);
        assert_eq!(cache.order.len(), before);
    }

    #[test]
    fn distinct_parameters_never_collide() {
        let cfg = SimConfig::table1();
        let region = RegionMap::halves(&cfg);
        let base = AppSpec::intra_only(0.0);
        let quick = SaturationProbe::quick();
        let full = SaturationProbe::default();
        let reference = sat_digest(&quick, &cfg, &region, 0, &base);
        // Key is a pure function of the parameters…
        assert_eq!(reference, sat_digest(&quick, &cfg, &region, 0, &base));
        // …and every parameter perturbation changes it.
        assert_ne!(reference, sat_digest(&full, &cfg, &region, 0, &base));
        assert_ne!(reference, sat_digest(&quick, &cfg, &region, 1, &base));
        let mut other_cfg = cfg.clone();
        other_cfg.vc_depth += 1;
        assert_ne!(reference, sat_digest(&quick, &other_cfg, &region, 0, &base));
        let quadrants = RegionMap::quadrants(&cfg);
        assert_ne!(reference, sat_digest(&quick, &cfg, &quadrants, 0, &base));
        let mut spec = base.clone();
        spec.mc += 0.05;
        spec.intra -= 0.05;
        assert_ne!(reference, sat_digest(&quick, &cfg, &region, 0, &spec));
        let mut dest = base.clone();
        dest.inter_dest = InterDest::Region(1);
        assert_ne!(reference, sat_digest(&quick, &cfg, &region, 0, &dest));
        let mut seeded = quick;
        seeded.seed ^= 1;
        assert_ne!(reference, sat_digest(&seeded, &cfg, &region, 0, &base));
    }
}
