//! The one record codec behind every durable file.
//!
//! Every row the experiment service and the sweep persist is one framed
//! line, `<tag> \t <crc32 of payload, 8 hex digits> \t <payload>`. The tag
//! names the record kind and its payload grammar; only the first two tabs
//! are structural. Journals ([`super::journal`]) append frames; the two
//! caches are one-record files, read by [`load`] — the one place a corrupt
//! record is set aside as `<name>.corrupt` — and written by [`save`], both
//! through [`Store`]. A [`RunResult`] travels as one [`result_line`], the
//! payload of result-cache records and journal `done` rows. DESIGN.md §14
//! tabulates the four record kinds.

use super::store::{crc32, Store};
use crate::runner::RunResult;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tag of journal rows: the serve WAL and the sweep checkpoint.
pub const WAL_TAG: &str = "rair-wal-v1";
/// Tag of serve result-cache records.
pub const RESULT_TAG: &str = "rair-res-v1";
/// Tag of saturation-cache records.
pub const SAT_TAG: &str = "rair-sat-v1";

/// Version tag opening every [`RunResult`] line; bump when the field
/// layout changes so old rows are rejected, not misparsed.
const RESULT_LINE_TAG: &str = "rair-ckpt-v1";

/// Frame one payload (without trailing newline).
pub fn frame(tag: &str, payload: &str) -> String {
    format!("{tag}\t{:08x}\t{payload}", crc32(payload.as_bytes()))
}

/// The payload of a framed line; `None` if the tag, framing or CRC does
/// not hold. A CRC mismatch and a truncated frame are the same verdict:
/// the row is unusable.
pub fn unframe<'a>(tag: &str, line: &'a str) -> Option<&'a str> {
    let mut parts = line.splitn(3, '\t');
    if parts.next()? != tag {
        return None;
    }
    let crc = u32::from_str_radix(parts.next()?, 16).ok()?;
    let payload = parts.next()?;
    (crc32(payload.as_bytes()) == crc).then_some(payload)
}

/// Decode the bytes of a one-record file: UTF-8, one framed line with an
/// optional trailing newline, and a payload `parse` accepts.
pub fn decode<T>(tag: &str, bytes: &[u8], parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let text = std::str::from_utf8(bytes).ok()?;
    unframe(tag, text.trim_end_matches('\n')).and_then(parse)
}

/// Read a one-record file through `store`; `None` is a miss the caller
/// recomputes. A file that fails [`decode`] is a counted miss: `corrupt`
/// ticks and the file is renamed to `<name>.corrupt` for post-mortems, so
/// a damaged record costs a recomputation, never a wrong value. A missing
/// or unreadable (`EIO`) file is a plain miss and is left alone.
pub fn load<T>(
    store: &dyn Store,
    path: &Path,
    tag: &str,
    parse: impl FnOnce(&str) -> Option<T>,
    corrupt: &AtomicU64,
) -> Option<T> {
    let bytes = match store.read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!(
                    "[store] warning: could not read {} ({e}); treating it as a miss",
                    path.display()
                );
            }
            return None;
        }
    };
    if let Some(v) = decode(tag, &bytes, parse) {
        return Some(v);
    }
    corrupt.fetch_add(1, Ordering::Relaxed);
    let name = path
        .file_name()
        .map_or_else(|| "record".into(), |s| s.to_string_lossy().into_owned());
    let aside = path.with_file_name(format!("{name}.corrupt"));
    eprintln!(
        "[store] warning: {} failed validation (CRC/parse); setting it aside as {}",
        path.display(),
        aside.display()
    );
    if let Err(e) = store.rename(path, &aside) {
        eprintln!("[store] warning: could not set aside corrupt record: {e}");
    }
    None
}

/// Write a one-record file atomically through `store`.
pub fn save(store: &dyn Store, path: &Path, tag: &str, payload: &str) -> std::io::Result<()> {
    store.write_atomic(path, format!("{}\n", frame(tag, payload)).as_bytes())
}

/// Escape a label (or any free text) into one tab- and newline-free field.
pub(crate) fn esc_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

pub(crate) fn unesc_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(o) => {
                out.push('\\');
                out.push(o);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Exact (bit-level) float round-trip: decimal formatting would perturb
/// resumed results relative to a straight-through run.
pub(crate) fn f64_field(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

pub(crate) fn parse_f64_field(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// `Vec<Option<f64>>` as one field: `-` for the empty vector, else a
/// comma list with `_` marking `None` (so `[]` and `[None]` stay distinct).
fn latency_field(v: &[Option<f64>]) -> String {
    if v.is_empty() {
        return "-".into();
    }
    v.iter()
        .map(|o| o.map_or_else(|| "_".into(), f64_field))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_latency_field(s: &str) -> Option<Vec<Option<f64>>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(',')
        .map(|t| {
            if t == "_" {
                Some(None)
            } else {
                parse_f64_field(t).map(Some)
            }
        })
        .collect()
}

/// One result as a single line (tab-separated, version-tagged, floats
/// bit-exact).
pub(crate) fn result_line(r: &RunResult) -> String {
    format!(
        "{RESULT_LINE_TAG}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        esc_label(&r.label),
        r.delivered,
        f64_field(r.throughput),
        r.cycles,
        r.routers,
        r.router_cycles_skipped,
        r.state_updates_skipped,
        r.idle_cycles_skipped,
        u8::from(r.oracle_enabled),
        r.oracle_violations,
        u8::from(r.truncated),
        r.flits_retransmitted,
        r.packets_retried,
        r.packets_dropped,
        r.reconfigurations,
        latency_field(&r.apl),
        latency_field(&r.total_latency),
    )
}

/// Parse one [`result_line`]; a malformed, truncated or version-mismatched
/// line is `None`.
pub(crate) fn parse_result_line(line: &str) -> Option<RunResult> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 18 || f[0] != RESULT_LINE_TAG {
        return None;
    }
    Some(RunResult {
        label: unesc_label(f[1]),
        delivered: f[2].parse().ok()?,
        throughput: parse_f64_field(f[3])?,
        cycles: f[4].parse().ok()?,
        routers: f[5].parse().ok()?,
        router_cycles_skipped: f[6].parse().ok()?,
        state_updates_skipped: f[7].parse().ok()?,
        idle_cycles_skipped: f[8].parse().ok()?,
        oracle_enabled: f[9] == "1",
        oracle_violations: f[10].parse().ok()?,
        truncated: f[11] == "1",
        flits_retransmitted: f[12].parse().ok()?,
        packets_retried: f[13].parse().ok()?,
        packets_dropped: f[14].parse().ok()?,
        reconfigurations: f[15].parse().ok()?,
        apl: parse_latency_field(f[16])?,
        total_latency: parse_latency_field(f[17])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Bytes of a result-cache file holding `r`.
    fn encode_record(r: &RunResult) -> Vec<u8> {
        format!("{}\n", frame(RESULT_TAG, &result_line(r))).into_bytes()
    }

    fn decode_record(bytes: &[u8]) -> Option<RunResult> {
        decode(RESULT_TAG, bytes, parse_result_line)
    }

    /// Bit-exact equality: the label plus the digest, which folds every
    /// numeric field by bit pattern and marks `None` latencies.
    fn same(a: &RunResult, b: &RunResult) -> bool {
        let digest = |r: &RunResult| {
            let mut d = metrics::Digest::new();
            r.digest_into(&mut d);
            d.finish()
        };
        a.label == b.label && digest(a) == digest(b)
    }

    fn assert_round_trips(r: &RunResult) {
        let back = decode_record(&encode_record(r)).expect("a valid frame decodes");
        assert!(same(r, &back), "{r:?} came back as {back:?}");
    }

    /// Floats the grammar must carry bit for bit.
    const SPECIAL: [f64; 7] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MAX,
        12.5,
    ];

    fn any_f64(rng: &mut SmallRng) -> f64 {
        match rng.random_range(0..4) {
            // NaN with an arbitrary payload (and sign).
            0 => f64::from_bits(0x7FF0_0000_0000_0001 | rng.random::<u64>() | (1 << 51)),
            1 => SPECIAL[rng.random_range(0..SPECIAL.len())],
            _ => f64::from_bits(rng.random()),
        }
    }

    fn any_latencies(rng: &mut SmallRng) -> Vec<Option<f64>> {
        (0..rng.random_range(0..5))
            .map(|_| rng.random_bool(0.7).then(|| any_f64(rng)))
            .collect()
    }

    /// Labels drawn from structural characters, escapes and non-ASCII.
    fn any_label(rng: &mut SmallRng) -> String {
        const PIECES: [&str; 10] = ["\t", "\n", "\\", "\\t", "a", "é", "中", "🦀", " ", "x,_-"];
        (0..rng.random_range(0..8))
            .map(|_| PIECES[rng.random_range(0..PIECES.len())])
            .collect()
    }

    fn any_u64(rng: &mut SmallRng) -> u64 {
        match rng.random_range(0..3) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.random(),
        }
    }

    fn any_result(seed: u64) -> RunResult {
        let rng = &mut SmallRng::seed_from_u64(seed);
        RunResult {
            label: any_label(rng),
            apl: any_latencies(rng),
            total_latency: any_latencies(rng),
            delivered: any_u64(rng),
            throughput: any_f64(rng),
            cycles: any_u64(rng),
            routers: rng.random::<u32>() as usize,
            router_cycles_skipped: any_u64(rng),
            state_updates_skipped: any_u64(rng),
            idle_cycles_skipped: any_u64(rng),
            oracle_enabled: rng.random(),
            oracle_violations: any_u64(rng),
            truncated: rng.random(),
            flits_retransmitted: any_u64(rng),
            packets_retried: any_u64(rng),
            packets_dropped: any_u64(rng),
            reconfigurations: any_u64(rng),
        }
    }

    /// The fixed inputs of the former per-format tests (runner checkpoint
    /// line, serve result cache).
    fn folded_results() -> [RunResult; 2] {
        let mut runner_case = any_result(0);
        runner_case.label = "weird\tlabel\\with\nescapes".into();
        runner_case.apl = vec![Some(f64::NAN), None, Some(-0.0)];
        runner_case.total_latency = Vec::new();
        runner_case.truncated = true;
        let mut serve_case = any_result(1);
        serve_case.label = "weird\tlabel".into();
        serve_case.apl = vec![Some(15.0)];
        [runner_case, serve_case]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Frame plus grammar round-trip any result bit-exactly, and no
        /// truncation, single-bit flip or arbitrary byte string decodes
        /// to anything but the original value or a rejection — without
        /// panicking.
        #[test]
        fn record_codec_round_trips_and_rejects_corruption(
            seed in 0u64..u64::MAX,
            noise in proptest::collection::vec(0u8..=255, 0..96),
        ) {
            for r in &folded_results() {
                assert_round_trips(r);
            }
            let r = any_result(seed);
            assert_round_trips(&r);
            let bytes = encode_record(&r);
            let ok_or_rejected = |b: &[u8]| decode_record(b).is_none_or(|back| same(&r, &back));
            for cut in 0..bytes.len() {
                prop_assert!(ok_or_rejected(&bytes[..cut]), "truncated at {cut}");
            }
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 1 << bit;
                    prop_assert!(ok_or_rejected(&flipped), "bit {bit} of byte {i}");
                }
            }
            // Arbitrary bytes, bare and behind a valid tag: never a panic.
            decode_record(&noise);
            decode_record(&[format!("{RESULT_TAG}\t").as_bytes(), &noise].concat());
            parse_result_line(&String::from_utf8_lossy(&noise));

            // Garbage, stale versions and partial frames are rejected.
            let line = result_line(&folded_results()[0]);
            for bad in [
                "",
                "garbage",
                "rair-ckpt-v0\tx",
                &line[..line.len() / 2],
            ] {
                prop_assert!(parse_result_line(bad).is_none(), "{bad:?}");
            }
            let payload = "done\t0123456789abcdef\trair-ckpt-v1\tlabel\t42";
            prop_assert_eq!(unframe(WAL_TAG, &frame(WAL_TAG, payload)), Some(payload));
            for bad in [
                "rair-wal-v0\t00000000\tx",
                "rair-wal-v1\tzz\tx",
                "rair-wal-v1\t00000000",
                "",
            ] {
                prop_assert!(unframe(WAL_TAG, bad).is_none(), "{bad:?}");
            }
            prop_assert!(unframe(RESULT_TAG, &frame(WAL_TAG, payload)).is_none());
        }
    }

    #[test]
    fn load_sets_corrupt_records_aside_and_save_round_trips() {
        use crate::service::store::StdStore;
        let dir = std::env::temp_dir().join(format!("rair-record-{}", std::process::id()));
        // lint: allow(swallowed-io-error)
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sat_0.txt");
        let store = StdStore;
        let corrupt = AtomicU64::new(0);
        let parse = |p: &str| Some(p.to_string());
        assert_eq!(load(&store, &path, SAT_TAG, parse, &corrupt), None);
        save(&store, &path, SAT_TAG, "payload\twith tab").unwrap();
        assert_eq!(
            load(&store, &path, SAT_TAG, parse, &corrupt).as_deref(),
            Some("payload\twith tab")
        );
        assert_eq!(corrupt.load(Ordering::Relaxed), 0);
        // A valid frame whose payload the grammar rejects is corrupt too.
        assert_eq!(load(&store, &path, SAT_TAG, |_| None::<()>, &corrupt), None);
        assert!(!path.exists());
        assert!(dir.join("sat_0.txt.corrupt").exists());
        // So is the unframed line of the earlier saturation-cache format.
        std::fs::write(&path, "v2 3fd0000000000000 00000000\n").unwrap();
        assert_eq!(load(&store, &path, SAT_TAG, parse, &corrupt), None);
        assert_eq!(corrupt.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
