//! Fixture harness for the graph rules R008–R010: each case under
//! `tests/fixtures/graph/<case>/` is a miniature workspace tree whose
//! `//~ Rnnn` markers pin exactly which (file, line) pairs must fire.
//!
//! The headline property lives in `r008_cross_file_*`: the seeded
//! violation spans three functions in two files, every one of which is
//! clean under the per-file scanner — only reachability over the item
//! graph catches it.

use cap_lint::graph::{build, Deps};
use cap_lint::parse::{parse_file, ParsedFile};
use cap_lint::reach::check_graph;
use cap_lint::rules::{check_rust, RuleId, Violation};

fn case_root(case: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/graph")
        .join(case)
}

/// Loads a fixture case: `(rel_path, source)` for every Rust file.
fn load(case: &str) -> Vec<(String, String)> {
    let root = case_root(case);
    let entries = cap_lint::walk::walk(&root).unwrap_or_else(|e| panic!("walk {case}: {e}"));
    entries
        .iter()
        .filter(|e| !e.manifest)
        .map(|e| {
            let src = std::fs::read_to_string(&e.abs)
                .unwrap_or_else(|err| panic!("read {}: {err}", e.rel));
            (e.rel.clone(), src)
        })
        .collect()
}

fn run_graph_rules(files: &[(String, String)]) -> (Vec<ParsedFile>, Vec<Violation>) {
    let parsed: Vec<ParsedFile> = files
        .iter()
        .map(|(rel, src)| parse_file(rel, src))
        .collect();
    let deps = Deps::default();
    let graph = build(&parsed, &deps);
    let violations = check_graph(&parsed, &graph, &deps);
    (parsed, violations)
}

/// `(path, line, rule)` expectations from `//~ Rnnn` markers.
fn expected(files: &[(String, String)]) -> Vec<(String, usize, RuleId)> {
    let mut out = Vec::new();
    for (rel, src) in files {
        for (idx, line) in src.lines().enumerate() {
            let Some(pos) = line.find("~ R") else {
                continue;
            };
            let code = &line[pos + 2..pos + 6];
            let rule = RuleId::parse(code).unwrap_or_else(|| panic!("bad marker {code} in {rel}"));
            out.push((rel.clone(), idx + 1, rule));
        }
    }
    out.sort();
    out
}

fn assert_case(case: &str) {
    let files = load(case);
    assert!(!files.is_empty(), "fixture case {case} is empty");
    let (_, got) = run_graph_rules(&files);
    let got_brief: Vec<(String, usize, RuleId)> = got
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect();
    assert_eq!(got_brief, expected(&files), "case {case}: {got:#?}");
}

#[test]
fn r008_cross_file_violation_caught_only_by_reachability() {
    let files = load("r008_violation");
    // Every file is individually clean under the per-file scanner —
    // this is the case the per-line architecture provably cannot see.
    for (rel, src) in &files {
        let per_file = check_rust(rel, src);
        assert!(
            per_file.is_empty(),
            "per-file scanner must miss the seeded violation, but fired on {rel}: {per_file:?}"
        );
    }
    let (_, got) = run_graph_rules(&files);
    assert_eq!(got.len(), 1, "{got:#?}");
    assert_eq!(got[0].rule, RuleId::R008);
    assert_eq!(got[0].path, "crates/tensor/src/matmul.rs");
    assert!(
        got[0]
            .what
            .contains("matmul_tiled -> prefetch_hint -> pace"),
        "chain must name every hop: {}",
        got[0].what
    );
    assert_case("r008_violation");
}

#[test]
fn r008_covers_the_input_only_conv_backward() {
    let (_, got) = run_graph_rules(&load("r008_input_only"));
    assert_eq!(got.len(), 1, "{got:#?}");
    assert!(
        got[0].what.contains("backward_input_only -> stamp"),
        "chain must name every hop: {}",
        got[0].what
    );
    assert_case("r008_input_only");
}

#[test]
fn r008_clean_tree_is_quiet_including_obs_instrumentation() {
    assert_case("r008_clean");
}

#[test]
fn r009_rename_without_fsync_fires_and_is_invisible_per_file() {
    let files = load("r009_violation");
    for (rel, src) in &files {
        assert!(
            check_rust(rel, src).is_empty(),
            "fs::rename is not a per-file needle; {rel} must be clean"
        );
    }
    assert_case("r009_violation");
}

#[test]
fn r009_fsync_evidence_local_cross_file_or_atomic_write_is_accepted() {
    assert_case("r009_clean");
}

#[test]
fn r010_float_fold_fires_where_marked() {
    assert_case("r010_violation");
}

#[test]
fn r010_blessed_and_exact_shapes_are_quiet() {
    assert_case("r010_clean");
}

#[test]
fn graph_serialization_is_stable_across_input_order() {
    let mut files = load("r009_clean");
    let parsed: Vec<ParsedFile> = files
        .iter()
        .map(|(rel, src)| parse_file(rel, src))
        .collect();
    let g1 = build(&parsed, &Deps::default());
    files.reverse();
    let parsed_rev: Vec<ParsedFile> = files
        .iter()
        .map(|(rel, src)| parse_file(rel, src))
        .collect();
    let g2 = build(&parsed_rev, &Deps::default());
    assert_eq!(
        cap_lint::graph::render_text(&g1),
        cap_lint::graph::render_text(&g2)
    );
    assert_eq!(
        cap_lint::graph::render_json(&g1),
        cap_lint::graph::render_json(&g2)
    );
}
