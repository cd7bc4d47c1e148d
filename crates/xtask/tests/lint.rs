//! Tests of the determinism lint: scanner correctness (comments, strings,
//! lifetimes, raw strings), every rule firing on a minimal fixture, the
//! `lint: allow` escape hatch, the full workspace staying clean, and the
//! revert-one-satellite regressions (putting `HashMap` back into
//! `sweep.rs`, an `unwrap` or a `collect` back into `sa_band`, must make
//! the lint fail).

use xtask::{lint_source, rule, Finding, Rule, RULES};

/// The function-scoped panic rule alone.
const PANIC: &[&Rule] = &[&xtask::PANIC_RULE];

fn all_rules() -> Vec<&'static xtask::Rule> {
    RULES.iter().collect()
}

fn lint(src: &str) -> Vec<Finding> {
    lint_source("fixture.rs", src, &all_rules())
}

#[test]
fn every_rule_fires_on_a_minimal_fixture() {
    let cases = [
        ("hash-collections", "use std::collections::HashMap;\n"),
        (
            "hash-collections",
            "let s: HashSet<u32> = Default::default();\n",
        ),
        ("os-entropy", "let mut rng = rand::thread_rng();\n"),
        ("os-entropy", "let r = SmallRng::from_entropy();\n"),
        ("wall-clock", "let t0 = std::time::Instant::now();\n"),
        ("wall-clock", "let t = SystemTime::now();\n"),
        (
            "unordered-parallelism",
            "jobs.par_iter().map(run).collect()\n",
        ),
        ("unordered-parallelism", "v.into_par_iter().sum()\n"),
        (
            "unordered-parallelism",
            "for msg in rx.try_iter() { merge(msg); }\n",
        ),
        (
            "unordered-parallelism",
            "while let Ok(m) = rx.try_recv() { apply(m); }\n",
        ),
        (
            "unordered-parallelism",
            "let m = rx.recv_timeout(Duration::from_millis(1));\n",
        ),
        (
            "unordered-parallelism",
            "if handle.is_finished() { results.push(handle.join()); }\n",
        ),
    ];
    for (want, src) in cases {
        let f = lint(src);
        assert_eq!(f.len(), 1, "{src:?} -> {f:?}");
        assert_eq!(f[0].rule, want, "{src:?}");
        assert_eq!(f[0].line, 1);
    }
}

#[test]
fn strings_and_comments_never_fire() {
    let src = r##"
// HashMap in a line comment is fine.
/* HashMap in a /* nested */ block comment is fine. */
/// Doc mentioning thread_rng and Instant is fine.
let s = "HashMap inside a string";
let r = r#"SystemTime inside a raw "string" with quotes"#;
let c = '"'; // char literal holding a quote must not open a string
let esc = "escaped \" quote then HashMap";
"##;
    assert!(lint(src).is_empty(), "{:?}", lint(src));
}

#[test]
fn lifetimes_do_not_confuse_the_char_scanner() {
    // A naive char-literal scanner treats `'a` as an unterminated literal
    // and swallows the rest of the file, hiding the HashMap on line 2.
    let src =
        "fn f<'a>(x: &'a str, s: &'static str) -> &'a str { x }\nuse std::collections::HashMap;\n";
    let f = lint(src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!((f[0].rule, f[0].line), ("hash-collections", 2));
}

#[test]
fn allow_escape_hatch_same_line_and_preceding_line() {
    let trailing = "use std::time::Instant; // lint: allow(wall-clock)\n";
    assert!(lint(trailing).is_empty());

    let preceding = "// lint: allow(wall-clock)\nlet t0 = Instant::now();\n";
    assert!(lint(preceding).is_empty());

    // The allowance is per-rule: it must not silence other rules…
    let wrong_rule = "use std::collections::HashMap; // lint: allow(wall-clock)\n";
    assert_eq!(lint(wrong_rule).len(), 1);

    // …and per-line: line 3 is out of the directive's reach.
    let too_far = "// lint: allow(wall-clock)\n\nlet t0 = Instant::now();\n";
    assert_eq!(lint(too_far).len(), 1);
}

#[test]
fn token_match_is_whole_identifier_only() {
    // Substrings of longer identifiers must not fire.
    let src = "struct MyHashMapLike; fn instant_ish() {} let par_iteration = 3;\n";
    assert!(lint(src).is_empty(), "{:?}", lint(src));
}

#[test]
fn findings_render_with_path_line_and_reason() {
    let f = lint("use std::collections::HashMap;\n");
    let s = f[0].to_string();
    assert!(s.contains("fixture.rs:1"), "{s}");
    assert!(s.contains("hash-collections"), "{s}");
    assert!(s.contains("BTreeMap"), "{s}");
}

#[test]
fn rule_lookup() {
    assert!(rule("os-entropy").is_some());
    assert!(rule("no-such-rule").is_none());
}

#[test]
fn workspace_is_clean() {
    let findings = xtask::lint_workspace(&xtask::workspace_root());
    assert!(
        findings.is_empty(),
        "determinism lint found banned tokens:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Revert-one-satellite check: the PR converted `sweep.rs` from `HashMap`
/// to `BTreeMap`. Undo that conversion textually and the lint must fail —
/// proving the lint actually guards the conversion rather than both
/// changes passing vacuously.
#[test]
fn reverting_the_sweep_btreemap_conversion_fails_the_lint() {
    let path = xtask::workspace_root().join("crates/experiments/src/sweep.rs");
    let src = std::fs::read_to_string(&path).unwrap();
    assert!(src.contains("BTreeMap"), "sweep.rs no longer uses BTreeMap");
    let reverted = src.replace("BTreeMap", "HashMap");
    let findings = lint_source("crates/experiments/src/sweep.rs", &reverted, &all_rules());
    assert!(
        findings.iter().any(|f| f.rule == "hash-collections"),
        "lint missed the reverted HashMap: {findings:?}"
    );
    // And the shipped file, unreverted, is clean under the same rules.
    assert!(lint_source("sweep.rs", &src, &all_rules())
        .iter()
        .all(|f| f.rule != "hash-collections"));
}

/// The function-scoped panic rule: fires only inside listed bodies, stays
/// silent elsewhere in the same file, allows `debug_assert*`, and honors
/// the escape hatch.
#[test]
fn panic_rule_is_function_scoped() {
    let src = r#"
fn helper() {
    let x = opt.unwrap(); // outside the hot path: legal
}
pub(crate) fn sa_band(x: Option<u32>) -> u32 {
    debug_assert!(x.is_some());
    x.unwrap()
}
fn also_fine() {
    panic!("not a hot path");
}
"#;
    let f = xtask::lint_body_source("fixture.rs", src, &["sa_band"], PANIC);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "panic-in-hot-path");
    assert_eq!(f[0].token, "unwrap");
    assert_eq!(f[0].line, 7);
}

#[test]
fn panic_rule_catches_each_family_member() {
    for tok in [
        "unwrap",
        "expect",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ] {
        let src = format!("fn va_band() {{\n    {tok}!(maybe);\n}}\n");
        let f = xtask::lint_body_source("fixture.rs", &src, &["va_band"], PANIC);
        assert_eq!(f.len(), 1, "{tok} missed: {f:?}");
        assert_eq!(f[0].token, tok);
    }
    // The debug_ variants stay legal.
    let src = "fn va_band() {\n    debug_assert!(ok);\n    debug_assert_eq!(a, b);\n}\n";
    assert!(xtask::lint_body_source("fixture.rs", src, &["va_band"], PANIC).is_empty());
}

#[test]
fn panic_rule_escape_hatch_and_strings() {
    let hatched =
        "fn rc_band() {\n    // lint: allow(panic-in-hot-path)\n    assert!(contract);\n}\n";
    assert!(xtask::lint_body_source("fixture.rs", hatched, &["rc_band"], PANIC).is_empty());
    // Tokens in strings and comments inside the body never fire, and
    // braces inside them must not derail the span tracker.
    let noisy = "fn rc_band() {\n    // unwrap in a comment {\n    let s = \"panic! } {\";\n}\nfn after() { x.unwrap(); }\n";
    assert!(xtask::lint_body_source("fixture.rs", noisy, &["rc_band"], PANIC).is_empty());
}

/// Revert-one-satellite check for the panic rule: putting an `.unwrap()`
/// back on the SA_in arbitration call in `sa_band` must fail the lint.
#[test]
fn reverting_the_band_unwrap_rewrite_fails_the_lint() {
    let path = xtask::workspace_root().join("crates/noc-sim/src/network.rs");
    let src = std::fs::read_to_string(&path).unwrap();
    let hot: Vec<&str> = xtask::HOT_PATHS
        .iter()
        .find(|h| h.file.ends_with("network.rs"))
        .unwrap()
        .functions
        .to_vec();
    // The shipped file is clean…
    assert!(xtask::lint_body_source("network.rs", &src, &hot, PANIC).is_empty());
    // …and reintroducing an unwrap inside sa_band is caught.
    let marker = "if let Some((w, next)) = arbitrate_rr_at(reqs, v, r.sa_in_ptr[in_port]) {";
    assert!(src.contains(marker), "sa_band rewrite marker missing");
    let reverted = src.replace(
        marker,
        "if let Some((w, next)) = Some(arbitrate_rr_at(reqs, v, r.sa_in_ptr[in_port]).unwrap()) {",
    );
    let findings = xtask::lint_body_source("network.rs", &reverted, &hot, PANIC);
    assert!(
        findings.iter().any(|f| f.token == "unwrap"),
        "lint missed the reverted unwrap: {findings:?}"
    );
}

/// The function-scoped allocation rule: every banned token fires inside a
/// band body, and nothing fires outside the listed bodies.
#[test]
fn alloc_rule_catches_each_token_and_is_function_scoped() {
    let rules = [&xtask::ALLOC_RULE];
    for (tok, stmt) in [
        ("collect", "let v: Vec<u32> = it.collect();"),
        ("to_vec", "let v = s.to_vec();"),
        ("vec", "let v = vec![0u64; n];"),
        ("format", "let s = format!(\"{x}\");"),
        ("to_string", "let s = x.to_string();"),
        ("to_owned", "let s = name.to_owned();"),
    ] {
        let src = format!("fn helper() {{\n    {stmt}\n}}\nfn sa_band() {{\n    {stmt}\n}}\n");
        let f = xtask::lint_body_source("fixture.rs", &src, &["sa_band"], &rules);
        assert_eq!(f.len(), 1, "{tok}: {f:?}");
        assert_eq!(
            (f[0].rule, f[0].token.as_str(), f[0].line),
            ("alloc-in-hot-path", tok, 5)
        );
    }
    // `Vec` the type and `collect` in a comment or string are not calls.
    let benign = "fn sa_band(s: &mut Vec<u32>) {\n    // no collect here\n    let m = \"to_vec\";\n    s.push(1);\n}\n";
    assert!(xtask::lint_body_source("fixture.rs", benign, &["sa_band"], &rules).is_empty());
    let hatched =
        "fn sa_band() {\n    // lint: allow(alloc-in-hot-path)\n    let v = vec![1];\n}\n";
    assert!(xtask::lint_body_source("fixture.rs", hatched, &["sa_band"], &rules).is_empty());
}

/// Revert-one-satellite check for the allocation rule: the SA band used
/// to `collect` each port's SA_in requests into a fresh `Vec`. Putting a
/// `.collect()` back into `sa_band` must fail the workspace's hot-path
/// rules for `network.rs`.
#[test]
fn reintroducing_a_collect_into_sa_band_fails_the_lint() {
    let path = xtask::workspace_root().join("crates/noc-sim/src/network.rs");
    let src = std::fs::read_to_string(&path).unwrap();
    let hp = xtask::HOT_PATHS
        .iter()
        .find(|h| h.file.ends_with("network.rs"))
        .unwrap();
    assert!(hp.rules.iter().any(|r| r.name == "alloc-in-hot-path"));
    assert!(xtask::lint_body_source("network.rs", &src, hp.functions, hp.rules).is_empty());
    let marker = "let reqs = cands.iter().map(|c| (c.prio_in, c.in_vc));";
    assert!(src.contains(marker), "sa_band SA_in request marker missing");
    let reverted = src.replace(
        marker,
        "let reqs: Vec<(u64, usize)> = cands.iter().map(|c| (c.prio_in, c.in_vc)).collect();",
    );
    let findings = xtask::lint_body_source("network.rs", &reverted, hp.functions, hp.rules);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "alloc-in-hot-path" && f.token == "collect"),
        "lint missed the reintroduced collect: {findings:?}"
    );
    // The admission checks are held to the panic rule only.
    let admit = xtask::HOT_PATHS
        .iter()
        .find(|h| h.file.ends_with("admit.rs"))
        .unwrap();
    assert!(admit.rules.iter().all(|r| r.name != "alloc-in-hot-path"));
}

#[test]
fn panic_rule_lookup_and_workspace_hot_paths_clean() {
    assert!(xtask::rule("alloc-in-hot-path").is_some());
    assert!(xtask::rule("panic-in-hot-path").is_some());
    let findings = xtask::lint_hot_paths(&xtask::workspace_root());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn swallowed_io_flags_discarded_fs_results() {
    let src = "fn cleanup(p: &std::path::Path) {\n    let _ = std::fs::remove_file(p);\n}\n";
    let f = xtask::lint_swallowed_io_source("fixture.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "swallowed-io-error");
    assert_eq!(f[0].line, 2);
    assert!(f[0].token.contains("remove_file"), "{f:?}");
}

#[test]
fn swallowed_io_flags_discarded_writes_and_syncs() {
    for call in [
        "writeln!(out, \"x\")",
        "write!(out, \"x\")",
        "file.write_all(b\"x\")",
        "file.sync_all()",
        "std::fs::rename(a, b)",
        "store.append_durable(p, b\"x\")",
    ] {
        let src = format!("fn f() {{\n    let _ = {call};\n}}\n");
        let f = xtask::lint_swallowed_io_source("fixture.rs", &src);
        assert_eq!(f.len(), 1, "{call} missed: {f:?}");
    }
}

#[test]
fn swallowed_io_allow_hatch_and_non_io_bindings_stay_legal() {
    // The escape hatch on the preceding line suppresses the finding.
    let hatched = "fn f(p: &std::path::Path) {\n    // lint: allow(swallowed-io-error)\n    let _ = std::fs::remove_file(p);\n}\n";
    assert!(xtask::lint_swallowed_io_source("fixture.rs", hatched).is_empty());
    // A named discard is visible in review; only the bare `_` is flagged.
    let named = "fn f(p: &std::path::Path) {\n    let _ignored = std::fs::remove_file(p);\n}\n";
    assert!(xtask::lint_swallowed_io_source("fixture.rs", named).is_empty());
    // Discarding a non-IO result is not this lint's business.
    let benign = "fn f() {\n    let _ = heap.pop();\n    let _ = send(msg);\n}\n";
    assert!(xtask::lint_swallowed_io_source("fixture.rs", benign).is_empty());
    // An IO call in a LATER statement must not attribute backwards.
    let later = "fn f(p: &std::path::Path) {\n    let _ = heap.pop();\n    let r = std::fs::remove_file(p);\n    r.unwrap();\n}\n";
    assert!(xtask::lint_swallowed_io_source("fixture.rs", later).is_empty());
}

#[test]
fn swallowed_io_rule_lookup_and_durability_scopes_clean() {
    assert!(xtask::rule("swallowed-io-error").is_some());
    let findings = xtask::lint_durability_scopes(&xtask::workspace_root());
    assert!(findings.is_empty(), "{findings:?}");
}
