//! The acceptance gate, as a tier-1 test: `caplint` must exit 0 on
//! this workspace at HEAD — every violation either fixed or carried in
//! `caplint.allow` with a justification, and no baseline entry stale.

#[test]
fn caplint_is_clean_on_this_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let allow_src = std::fs::read_to_string(root.join("caplint.allow"))
        .expect("caplint.allow must exist at the workspace root");
    let allow = cap_lint::allow::parse(&allow_src).expect("caplint.allow must parse");
    let outcome = cap_lint::check_workspace(&root, &allow).expect("check workspace");
    assert!(
        outcome.violations.is_empty() && outcome.stale.is_empty(),
        "caplint must be clean on HEAD:\n{}",
        cap_lint::render_human(&outcome)
    );
    // The baseline is meant to shrink, not rot: every entry must still
    // be load-bearing (checked via staleness above) and justified
    // (checked by the parser). Sanity-bound its size so it cannot
    // quietly become a dumping ground.
    assert!(
        allow.len() <= 16,
        "baseline has grown to {} entries — pay down the debt",
        allow.len()
    );
    // The graph rules must actually have run: the clean verdict above
    // is meaningless if the call graph silently came back empty.
    assert!(
        outcome.graph_fns > 500 && outcome.graph_edges > 1000,
        "workspace call graph is implausibly small: {} fns / {} edges",
        outcome.graph_fns,
        outcome.graph_edges
    );
    // R008-R012 are active rules, not future work.
    assert_eq!(cap_lint::rules::RuleId::ALL.len(), 12);
    for code in ["R008", "R009", "R010", "R011", "R012"] {
        assert!(
            cap_lint::render_rule_list().contains(code),
            "{code} missing from --list-rules"
        );
    }
    // The R008 entry points exist in the graph — if a kernel is
    // renamed, this gate must force the entry-point list to follow.
    let graph = cap_lint::load_graph(&root).expect("load graph");
    for (path, name) in [
        ("crates/tensor/src/matmul.rs", "matmul"),
        ("crates/tensor/src/conv.rs", "im2col"),
        ("crates/nn/src/layer/conv.rs", "forward"),
        ("crates/core/src/score.rs", "evaluate_scores"),
    ] {
        assert!(
            graph
                .nodes
                .iter()
                .any(|n| n.path == path && n.name.starts_with(name)),
            "R008 entry point {path}::{name}* not found in the graph"
        );
    }
}
