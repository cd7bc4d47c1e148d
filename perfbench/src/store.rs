//! A [`Store`] that times and counts every operation of the store it wraps.
//!
//! The service's durable writes all go through `Store`, so wrapping the
//! `StdStore` it is given measures the journal and result-cache IO from
//! outside the library. Bytes pass through unchanged.

use crate::trace;
use experiments::service::Store;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The operation classes reported as `store.<class>_{n,s}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Append,
    WriteAtomic,
    Read,
    /// `rename`, `remove`, `create_dir_all` and `exists`.
    Other,
}

impl OpClass {
    pub const ALL: [OpClass; 4] = [
        OpClass::Append,
        OpClass::WriteAtomic,
        OpClass::Read,
        OpClass::Other,
    ];

    /// Names of the `(count, seconds)` per-layer metrics.
    pub fn metric_names(self) -> (&'static str, &'static str) {
        match self {
            OpClass::Append => ("store.append_n", "store.append_s"),
            OpClass::WriteAtomic => ("store.write_atomic_n", "store.write_atomic_s"),
            OpClass::Read => ("store.read_n", "store.read_s"),
            OpClass::Other => ("store.other_n", "store.other_s"),
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            OpClass::Append => "store.append",
            OpClass::WriteAtomic => "store.write_atomic",
            OpClass::Read => "store.read",
            OpClass::Other => "store.other",
        }
    }
}

#[derive(Default)]
struct OpStat {
    n: AtomicU64,
    ns: AtomicU64,
}

/// Delegating store with per-class operation counts and busy time.
pub struct TimingStore<S> {
    inner: S,
    stats: [OpStat; 4],
}

impl<S: Store> TimingStore<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            stats: Default::default(),
        }
    }

    /// `(operations, seconds)` spent in one class so far.
    pub fn stat(&self, class: OpClass) -> (u64, f64) {
        let s = &self.stats[class as usize];
        (
            s.n.load(Ordering::Relaxed),
            s.ns.load(Ordering::Relaxed) as f64 * 1e-9,
        )
    }

    fn timed<T>(&self, class: OpClass, op: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = trace::span(class.span_name(), op);
        let s = &self.stats[class as usize];
        s.n.fetch_add(1, Ordering::Relaxed);
        s.ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl<S: Store> Store for TimingStore<S> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(OpClass::Read, || self.inner.read(path))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(OpClass::WriteAtomic, || {
            self.inner.write_atomic(path, bytes)
        })
    }

    fn append_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(OpClass::Append, || self.inner.append_durable(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(OpClass::Other, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.timed(OpClass::Other, || self.inner.remove(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed(OpClass::Other, || self.inner.create_dir_all(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.timed(OpClass::Other, || self.inner.exists(path))
    }
}
