//! One iteration of one benchmark workload in this (fresh) process.
//!
//! ```text
//! perfbench --workload <fig14_cold|torus32_single|serve_jobs> --seed N
//!           --trace 0|1 --dir <fresh directory> [--spawned-ns <unix ns>]
//!           [--spans <file>] [--setup-only]
//! ```
//!
//! Prints one JSON row on stdout. `--dir` must be new or empty: the
//! saturation cache (`RAIR_CACHE_DIR`) and the service state live under it,
//! never under the repository's `results/`. `--spawned-ns` is the wall
//! clock at which the caller spawned this process, so set-up time includes
//! process start. With `--trace 1` the spans are written to `--spans`.
//! `--setup-only` stops where the first simulated cycle would start, for
//! the workloads that support it.

use perfbench::workloads::{self, Outcome};
use perfbench::{trace, FORBIDDEN_ENV};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    dir: PathBuf,
    spans: Option<PathBuf>,
    spawned_ns: Option<u128>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced, mut dir) = (None, None, false, None);
    let (mut spans, mut spawned_ns, mut setup_only) = (None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--spawned-ns" => {
                spawned_ns = Some(value()?.parse().map_err(|e| format!("--spawned-ns: {e}"))?);
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::WORKLOADS.join(", ")
        ));
    }
    if setup_only && !workloads::SETUP_ONLY.contains(&workload.as_str()) {
        return Err(format!("{workload} has no --setup-only mode"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        traced,
        dir: dir.ok_or("--dir is required")?,
        spans,
        spawned_ns,
        setup_only,
    })
}

fn json_row(args: &Args, out: &Outcome) -> String {
    let mut fields = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"traced\": {}", args.traced),
        format!("\"setup_only\": {}", args.setup_only),
        format!("\"host_parallelism\": {}", perfbench::host_parallelism()),
        format!("\"setup_s\": {}", out.setup_s),
        format!("\"wall_s\": {}", out.wall_s),
        format!(
            "\"peak_rss_mb\": {}",
            perfbench::peak_rss_mb().map_or("null".into(), |v| v.to_string())
        ),
        format!("\"attempted\": {}", out.attempted),
        format!("\"failed\": {}", out.failed),
        format!("\"digest\": \"{:016x}\"", out.digest),
    ];
    let problems: Vec<String> = out
        .problems
        .iter()
        .map(|p| format!("\"{}\"", p.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    fields.push(format!("\"problems\": [{}]", problems.join(", ")));
    let layers: Vec<String> = out
        .layers
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{k}\": {v}")
        })
        .collect();
    fields.push(format!("\"layers\": {{{}}}", layers.join(", ")));
    if args.traced {
        let spans = trace::spans();
        let self_s: Vec<String> = trace::self_times(&spans)
            .iter()
            .map(|(layer, s)| format!("\"{layer}\": {s}"))
            .collect();
        fields.push(format!("\"self_s\": {{{}}}", self_s.join(", ")));
        fields.push(format!("\"top_level_s\": {}", trace::top_level_s(&spans)));
        fields.push(format!("\"spans\": {}", spans.len()));
    }
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    perfbench::mark_process_start(args.spawned_ns);
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; unset it");
        return ExitCode::from(2);
    }
    let fresh = std::fs::read_dir(&args.dir).map_or(true, |mut d| d.next().is_none());
    if !fresh {
        eprintln!("perfbench: --dir {} is not empty", args.dir.display());
        return ExitCode::from(2);
    }
    let cache_dir = args.dir.join("satcache");
    if let Err(e) = std::fs::create_dir_all(&cache_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cache_dir.display());
        return ExitCode::from(2);
    }
    // Still single-threaded here, so setting the variable is race-free.
    std::env::set_var("RAIR_CACHE_DIR", &cache_dir);
    if args.traced {
        trace::enable();
    }

    let run = catch_unwind(AssertUnwindSafe(|| {
        workloads::run(&args.workload, args.seed, &args.dir, args.setup_only)
    }));
    let out = run.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        let attempted = workloads::attempted(&args.workload);
        Outcome {
            attempted,
            failed: attempted,
            problems: vec![format!("workload panicked: {msg}")],
            ..Outcome::default()
        }
    });
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, trace::to_json(&trace::spans())) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    println!("{}", json_row(&args, &out));
    ExitCode::SUCCESS
}
