//! Tests of the benchmark's own parts: the seeded jobs-file generator, the
//! timing store and the span arithmetic.

use experiments::runner::ExpConfig;
use experiments::service::{JobSpec, StdStore, Store};
use perfbench::jobs::{self, jobs_file};
use perfbench::store::{OpClass, TimingStore};
use perfbench::trace::{self_times, top_level_s, Span};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[test]
fn jobs_file_is_a_function_of_the_seed() {
    for seed in [0, 1, 7, u64::MAX] {
        assert_eq!(jobs_file(seed), jobs_file(seed), "seed {seed}");
    }
    assert_ne!(jobs_file(1), jobs_file(2));
}

#[test]
fn jobs_file_round_trips_through_parse_jobs() {
    let ec = ExpConfig::quick();
    for seed in [0, 1, 42] {
        let text = jobs_file(seed);
        let specs = JobSpec::parse_jobs(&text).expect("generated file parses");
        assert_eq!(specs.len(), jobs::TOTAL_JOBS);
        let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        for (spec, line) in specs.iter().zip(&lines) {
            let rendered = format!(
                "{} {} {} {} {} {:.3} {}",
                spec.label,
                spec.scheme,
                spec.routing,
                spec.region,
                spec.pattern,
                spec.rate,
                spec.seed
            );
            assert_eq!(&rendered, line);
        }
        // Duplicates are relabeled copies, so they share an id.
        let ids: BTreeSet<u64> = specs.iter().map(|s| s.id(&ec)).collect();
        assert_eq!(ids.len(), jobs::UNIQUE_JOBS + jobs::REJECTED_JOBS);
        let rejected = specs.iter().filter(|s| s.scheme == "rair_foreign_high");
        assert_eq!(rejected.count(), jobs::REJECTED_JOBS);
    }
}

/// Apply the same operations to a store and return everything observable.
fn exercise(store: &dyn Store, dir: &Path) -> Vec<String> {
    let mut seen = Vec::new();
    let sub = dir.join("a").join("b");
    seen.push(format!("{:?}", store.create_dir_all(&sub).is_ok()));
    let file = sub.join("result.txt");
    seen.push(format!(
        "{:?}",
        store.write_atomic(&file, b"first\x00\xff").is_ok()
    ));
    seen.push(format!(
        "{:?}",
        store.write_atomic(&file, b"second").is_ok()
    ));
    let wal = sub.join("journal.wal");
    for row in [&b"row 1\n"[..], b"row 2\n", b""] {
        seen.push(format!("{:?}", store.append_durable(&wal, row).is_ok()));
    }
    seen.push(format!("{:?}", store.read(&file).ok()));
    seen.push(format!("{:?}", store.read(&wal).ok()));
    let moved = sub.join("moved.txt");
    seen.push(format!("{:?}", store.rename(&file, &moved).is_ok()));
    seen.push(format!("{} {}", store.exists(&file), store.exists(&moved)));
    seen.push(format!("{:?}", store.read(&file).is_err()));
    seen.push(format!("{:?}", store.remove(&moved).is_ok()));
    seen.push(format!("{}", store.exists(&moved)));
    seen.push(format!("{:?}", std::fs::read(&wal).ok()));
    seen
}

#[test]
fn timing_store_passes_bytes_through_unchanged() {
    let plain = exercise(&StdStore, &scratch("std"));
    let timing = TimingStore::new(StdStore);
    let timed = exercise(&timing, &scratch("timing"));
    assert_eq!(plain, timed);
    assert!(timed.contains(&format!("{:?}", Some(b"row 1\nrow 2\n".to_vec()))));
    let counts: Vec<u64> = OpClass::ALL.iter().map(|&c| timing.stat(c).0).collect();
    // append, write_atomic, read, other (create, rename, 3 exists, remove).
    assert_eq!(counts, [3, 2, 3, 6]);
}

fn span(
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    thread: usize,
) -> Span {
    Span {
        name,
        start_s,
        end_s,
        parent,
        thread,
    }
}

#[test]
fn self_time_subtracts_same_thread_children_only() {
    let spans = vec![
        span("serve.fresh", 0.0, 10.0, None, 0),
        span("store.append", 1.0, 2.0, Some(0), 0),
        span("exec.job", 1.0, 9.0, Some(0), 1),
        span("store.append", 9.0, 9.5, Some(0), 1),
        span("setup", 10.0, 11.0, None, 0),
        span("build.input", 10.0, 10.25, Some(4), 0),
    ];
    let st = self_times(&spans);
    assert_eq!(st["serve"], 9.0);
    assert_eq!(st["store"], 1.5);
    assert_eq!(st["exec"], 8.0);
    assert_eq!(st["setup"], 0.75);
    assert_eq!(st["build"], 0.25);
    assert_eq!(top_level_s(&spans), 11.0);
}
