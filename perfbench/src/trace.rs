//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls *into* the libraries' public
//! functions (the benchmark never instruments library code). A span has a
//! name, start and end (seconds since the recorder was enabled), the index
//! of the span that caused it, and the recording thread. Spans opened on a
//! thread with no open span of its own (the service's worker pool) take
//! the currently open top-level span of the driving thread as parent.
//!
//! Recording is off unless [`enable`] was called: [`span`] then costs one
//! relaxed load, so the untraced run measures the program, not the tracer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub thread: usize,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

const NO_SPAN: usize = usize::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// The open top-level span, or [`NO_SPAN`].
static ROOT: AtomicUsize = AtomicUsize::new(NO_SPAN);
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        origin: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Start recording spans (the traced run).
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span on drop, so a panicking call still ends its span.
struct Open(usize);

impl Drop for Open {
    fn drop(&mut self) {
        let rec = recorder();
        let end_s = rec.origin.elapsed().as_secs_f64();
        if let Ok(mut spans) = rec.spans.lock() {
            spans[self.0].end_s = end_s;
        }
        STACK.with(|s| s.borrow_mut().pop());
        // Only the top-level span itself clears the root slot.
        let _ = ROOT.compare_exchange(self.0, NO_SPAN, Ordering::SeqCst, Ordering::SeqCst);
    }
}

/// Run `f` inside a span named `name` (just run it when tracing is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let rec = recorder();
    let parent = STACK.with(|s| s.borrow().last().copied()).or_else(|| {
        let root = ROOT.load(Ordering::SeqCst);
        (root != NO_SPAN).then_some(root)
    });
    let idx = {
        let mut spans = rec.spans.lock().expect("span list lock poisoned");
        let start_s = rec.origin.elapsed().as_secs_f64();
        spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent,
            thread: THREAD.with(|t| *t),
        });
        spans.len() - 1
    };
    if parent.is_none() {
        ROOT.store(idx, Ordering::SeqCst);
    }
    STACK.with(|s| s.borrow_mut().push(idx));
    let _open = Open(idx);
    f()
}

/// All spans recorded so far, in start order.
pub fn spans() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .expect("span list lock poisoned")
        .clone()
}

/// Self time per layer: each span's duration minus the part covered by
/// its children on the same thread. Children on other threads (the
/// service's workers) run in parallel with it and count under their own
/// layer, summed over threads.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].thread == s.thread {
                child_s[p] += s.duration_s();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_s) {
        *out.entry(s.layer()).or_insert(0.0) += s.duration_s() - c;
    }
    out
}

/// Summed duration of the top-level spans.
pub fn top_level_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_s)
        .sum()
}

/// The spans as a JSON array (written out when the traced run ends).
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                 \"parent\": {parent}, \"thread\": {}}}",
                s.name, s.start_s, s.end_s, s.thread
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}
