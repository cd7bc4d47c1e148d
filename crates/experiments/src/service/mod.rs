//! Crash-safe experiment job service (ROADMAP item 4's durability layer).
//!
//! The service turns the one-shot sweep runner into something a long-lived
//! design-space exploration can sit on: jobs are declared in a text file,
//! every state transition is journaled to a per-line-CRC'd WAL
//! ([`journal`]), results are deduplicated against a digest-keyed result
//! cache, and a supervisor retries transient failures with deterministic
//! backoff while quarantining poison jobs instead of aborting the sweep
//! ([`serve`]). Every durable file is written in one CRC-framed record
//! format ([`record`]). All filesystem traffic goes through the injectable
//! [`store::Store`] trait, so the [`chaos`] battery can deterministically
//! inject EIO, ENOSPC, torn writes, crash-before-rename — and SIGKILL the
//! whole process — and prove, digest-for-digest, that every fault class
//! recovers. See DESIGN.md §14 for the architecture, journal grammar, and
//! the failure taxonomy / recovery matrix.

pub mod chaos;
pub mod journal;
pub mod record;
pub mod serve;
pub mod store;

pub use chaos::{run as run_chaos, run_wrong_result, ChaosReport};
pub use journal::{Journal, Replay};
pub use record::WAL_TAG;
pub use serve::{serve, sim_exec, JobExec, JobSpec, JobStatus, ServeConfig, ServeReport};
pub use store::{crc32, std_store, ChaosConfig, ChaosStore, Fault, StdStore, Store};

/// Recursively copy a directory tree — enough for tests that snapshot a
/// service directory (journal + result cache) and resume from the copy.
#[cfg(test)]
pub(crate) fn copy_dir_for_tests(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_dir_for_tests(&from, &to);
        } else {
            std::fs::copy(&from, &to).unwrap();
        }
    }
}
