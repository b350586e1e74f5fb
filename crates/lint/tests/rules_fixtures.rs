//! Table-driven fixture tests: every per-file rule must fire exactly
//! on the lines its `*_violation` fixture marks with `//~ Rnnn` (or
//! `#~ Rnnn` in TOML fixtures) and stay silent on its `*_clean`
//! fixture. A marker may append `@start..end` to also assert the
//! 1-based char-column span the caret snippet underlines, e.g.
//! `//~ R001 @18..31`.

use cap_lint::rules::{check_manifest, check_rust, RuleId, Violation};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// One `~ Rnnn [@start..end]` marker expectation.
#[derive(Debug, PartialEq)]
struct Expect {
    line: usize,
    rule: RuleId,
    span: Option<(usize, usize)>,
}

/// Extracts expectations from `~ Rnnn [@start..end]` markers.
fn expected(src: &str) -> Vec<Expect> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("~ R") else {
            continue;
        };
        let code = &line[pos + 2..pos + 6];
        let rule = RuleId::parse(code).unwrap_or_else(|| panic!("bad marker {code}"));
        let span = line[pos + 6..].trim().strip_prefix('@').map(|rest| {
            let (a, b) = rest
                .split_once("..")
                .unwrap_or_else(|| panic!("bad span marker {rest:?} (want @start..end)"));
            let parse = |s: &str| {
                s.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|e| panic!("bad span bound {s:?}: {e}"))
            };
            (parse(a), parse(b))
        });
        out.push(Expect {
            line: idx + 1,
            rule,
            span,
        });
    }
    out
}

/// Asserts findings match the fixture's markers: always line + rule,
/// and the column span wherever a marker pins one.
fn assert_matches(got: &[Violation], want: &[Expect], ctx: &str) {
    let got_brief: Vec<(usize, RuleId)> = got.iter().map(|v| (v.line, v.rule)).collect();
    let want_brief: Vec<(usize, RuleId)> = want.iter().map(|e| (e.line, e.rule)).collect();
    assert_eq!(got_brief, want_brief, "{ctx}");
    for (v, e) in got.iter().zip(want) {
        if let Some((start, end)) = e.span {
            assert_eq!(
                (v.col, v.end_col),
                (start, end),
                "{ctx}: span at line {}",
                e.line
            );
        }
    }
}

/// `(fixture file, synthetic workspace-relative path to check under)`.
const RUST_CASES: &[(&str, &str)] = &[
    ("r001_violation.rs", "crates/demo/src/lib.rs"),
    ("r001_clean.rs", "crates/demo/src/lib.rs"),
    ("r002_violation.rs", "crates/demo/src/lib.rs"),
    ("r002_clean.rs", "crates/demo/src/lib.rs"),
    ("r003_violation.rs", "crates/demo/src/lib.rs"),
    ("r003_clean.rs", "crates/demo/src/lib.rs"),
    ("r004_violation.rs", "crates/demo/src/lib.rs"),
    ("r004_clean.rs", "crates/demo/src/lib.rs"),
    ("r005_violation.rs", "crates/nn/src/hot.rs"),
    ("r005_clean.rs", "crates/nn/src/hot.rs"),
    // Under a simd.rs path R011 stays quiet, so the R006 markers are
    // the only expectations; the confinement interplay is covered by
    // the r011 fixtures below and the scoping test.
    ("r006_violation.rs", "crates/demo/src/simd.rs"),
    ("r006_clean.rs", "crates/demo/src/simd.rs"),
    ("r011_violation.rs", "crates/demo/src/lib.rs"),
    ("r011_clean.rs", "crates/demo/src/lib.rs"),
    ("r012_violation.rs", "crates/demo/src/lib.rs"),
    ("r012_clean.rs", "crates/demo/src/lib.rs"),
];

#[test]
fn every_rule_fires_exactly_where_marked() {
    for &(name, path) in RUST_CASES {
        let src = fixture(name);
        let got = check_rust(path, &src);
        assert_matches(
            &got,
            &expected(&src),
            &format!("fixture {name} under path {path}"),
        );
    }
}

#[test]
fn manifest_rule_fires_exactly_where_marked() {
    for name in ["r007_violation.toml", "r007_clean.toml"] {
        let src = fixture(name);
        let got = check_manifest("crates/demo/Cargo.toml", &src);
        assert_matches(&got, &expected(&src), &format!("fixture {name}"));
    }
}

/// The same violating sources must be silent when they live where the
/// rule does not apply: rule scoping is part of the contract.
#[test]
fn rule_scoping_exempts_the_designated_homes() {
    let cases: &[(&str, &str)] = &[
        // The pool crate is the one place allowed to spawn threads.
        ("r001_violation.rs", "crates/par/src/lib.rs"),
        // fsx.rs implements atomic_write and must use raw files.
        ("r002_violation.rs", "crates/obs/src/fsx.rs"),
        // The telemetry layer owns the wall clock.
        ("r004_violation.rs", "crates/obs/src/serve.rs"),
        // R005 binds hot-path crates only, not e.g. the bench harness.
        ("r005_violation.rs", "crates/bench/src/lib.rs"),
        // Documented unsafe is at home in simd.rs and the pool crate.
        ("r011_violation.rs", "crates/tensor/src/simd.rs"),
        ("r011_violation.rs", "crates/par/src/worker.rs"),
    ];
    for &(name, path) in cases {
        let src = fixture(name);
        let fired: Vec<_> = check_rust(path, &src)
            .into_iter()
            // The scope fixtures may still trip *other* rules (e.g. the
            // R004 fixture's clock reads are exempt in obs, but nothing
            // else in it violates anything); assert none fire at all.
            .map(|v| (v.rule, v.line))
            .collect();
        assert!(
            fired.is_empty(),
            "fixture {name} under {path} fired {fired:?}"
        );
    }
}

/// Whole-file exemption: integration test dirs, benches, and examples
/// are demo/test code for the content rules.
#[test]
fn test_dirs_are_exempt_for_content_rules() {
    let src = fixture("r001_violation.rs");
    for path in [
        "crates/demo/tests/it.rs",
        "crates/demo/benches/b.rs",
        "examples/demo.rs",
    ] {
        assert!(check_rust(path, &src).is_empty(), "path {path}");
    }
    // ... but R006 still applies in test dirs.
    let src6 = fixture("r006_violation.rs");
    let got = check_rust("crates/demo/tests/it.rs", &src6);
    assert_eq!(got.len(), expected(&src6).len());
    assert!(got.iter().all(|v| v.rule == RuleId::R006));
}
