#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! `cap-lint` — the workspace invariant checker behind the `caplint`
//! binary.
//!
//! PRs 1–4 established the contracts this workspace runs on: results
//! are bit-identical at any `CAP_THREADS`, durable writes go through
//! `cap_obs::fsx::atomic_write`, threads come only from the `cap-par`
//! pool, and nothing depends on crates.io. `caplint` turns those
//! contracts from tribal knowledge into a mechanical CI gate: a small
//! comment/string/raw-string-aware scanner (no rustc, no syn — this
//! crate has **zero** dependencies, so a broken workspace crate can
//! never take the lint gate down with it) walks every Rust source and
//! `Cargo.toml` and enforces rules R001–R007 (see [`RuleId`]).
//!
//! Pre-existing accepted violations live in a checked-in
//! [`caplint.allow` baseline](allow) with per-file expected counts and
//! mandatory justifications; new violations and stale baseline entries
//! both fail the run, so the baseline only ever shrinks.
//!
//! ```text
//! cargo run -p cap-lint --bin caplint -- --root . --json
//! ```

pub mod allow;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod walk;

use allow::AllowEntry;
use rules::{RuleId, Violation};
use std::collections::BTreeMap;
use std::path::Path;

/// A baseline entry that no longer matches reality and must be
/// tightened or removed.
#[derive(Debug, Clone)]
pub struct StaleEntry {
    /// The stale allowlist entry.
    pub entry: AllowEntry,
    /// How many violations actually remain (strictly fewer than
    /// `entry.count`).
    pub found: usize,
}

/// Result of checking a workspace: what fires, what the baseline
/// suppressed, and what parts of the baseline have gone stale.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations not covered by the baseline.
    pub violations: Vec<Violation>,
    /// Baseline entries whose expected count exceeds reality.
    pub stale: Vec<StaleEntry>,
    /// Number of violations suppressed by the baseline.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_checked: usize,
    /// Number of `fn` nodes in the workspace call graph (0 when only
    /// [`apply_baseline`] ran without a graph pass).
    pub graph_fns: usize,
    /// Number of call edges in the workspace call graph.
    pub graph_edges: usize,
}

impl Outcome {
    /// Process exit code: 0 clean, 1 violations, 2 stale-baseline-only.
    pub fn exit_code(&self) -> i32 {
        if !self.violations.is_empty() {
            1
        } else if !self.stale.is_empty() {
            2
        } else {
            0
        }
    }
}

/// Checks every Rust source and manifest reachable from `root`,
/// applying the baseline in `allow` (pass `&[]` for none).
///
/// # Errors
///
/// Returns a formatted message when the tree cannot be walked or a
/// file cannot be read.
pub fn check_workspace(root: &Path, allow: &[AllowEntry]) -> Result<Outcome, String> {
    let entries = walk::walk(root).map_err(|e| format!("walk {}: {e}", root.display()))?;
    let mut raw: Vec<Violation> = Vec::new();
    let mut files_checked = 0usize;
    let mut parsed: Vec<parse::ParsedFile> = Vec::new();
    let mut manifests: Vec<(String, String)> = Vec::new();
    for entry in &entries {
        let src =
            std::fs::read_to_string(&entry.abs).map_err(|e| format!("read {}: {e}", entry.rel))?;
        files_checked += 1;
        if entry.manifest {
            raw.extend(rules::check_manifest(&entry.rel, &src));
            manifests.push((entry.rel.clone(), src));
        } else {
            raw.extend(rules::check_rust(&entry.rel, &src));
            // The graph only carries shipping code: whole-file test
            // paths contribute no nodes (cfg(test) regions are dropped
            // per-fn at build time).
            if !rules::is_test_path(&entry.rel) {
                parsed.push(parse::parse_file(&entry.rel, &src));
            }
        }
    }
    let deps = graph::Deps::from_manifests(&manifests);
    let g = graph::build(&parsed, &deps);
    raw.extend(reach::check_graph(&parsed, &g, &deps));
    let mut outcome = apply_baseline(raw, allow, files_checked);
    outcome.graph_fns = g.nodes.len();
    outcome.graph_edges = g.edges.len();
    Ok(outcome)
}

/// Parses the workspace and builds the call graph without running any
/// rules — the engine behind `caplint graph`.
///
/// # Errors
///
/// Returns a formatted message when the tree cannot be walked or a
/// file cannot be read.
pub fn load_graph(root: &Path) -> Result<graph::Graph, String> {
    let entries = walk::walk(root).map_err(|e| format!("walk {}: {e}", root.display()))?;
    let mut parsed: Vec<parse::ParsedFile> = Vec::new();
    let mut manifests: Vec<(String, String)> = Vec::new();
    for entry in &entries {
        let src =
            std::fs::read_to_string(&entry.abs).map_err(|e| format!("read {}: {e}", entry.rel))?;
        if entry.manifest {
            manifests.push((entry.rel.clone(), src));
        } else if !rules::is_test_path(&entry.rel) {
            parsed.push(parse::parse_file(&entry.rel, &src));
        }
    }
    let deps = graph::Deps::from_manifests(&manifests);
    Ok(graph::build(&parsed, &deps))
}

/// Applies baseline count semantics to raw findings.
pub fn apply_baseline(raw: Vec<Violation>, allow: &[AllowEntry], files_checked: usize) -> Outcome {
    let mut counts: BTreeMap<(RuleId, &str), usize> = BTreeMap::new();
    for v in &raw {
        *counts.entry((v.rule, v.path.as_str())).or_default() += 1;
    }
    let mut out = Outcome {
        files_checked,
        ..Outcome::default()
    };
    for v in raw.iter() {
        let found = counts[&(v.rule, v.path.as_str())];
        match allow.iter().find(|e| e.rule == v.rule && e.path == v.path) {
            // Within budget: suppressed. (Under budget is also
            // suppressed here; the staleness pass below still flags
            // the entry so the budget gets tightened.)
            Some(e) if found <= e.count => out.suppressed += 1,
            // Over budget: someone introduced a new violation — report
            // every instance in the file so the offender is visible.
            Some(_) => out.violations.push(v.clone()),
            None => out.violations.push(v.clone()),
        }
    }
    for e in allow {
        let found = counts.get(&(e.rule, e.path.as_str())).copied().unwrap_or(0);
        if found < e.count {
            out.stale.push(StaleEntry {
                entry: e.clone(),
                found,
            });
        }
    }
    out
}

/// Renders the human-readable report.
pub fn render_human(o: &Outcome) -> String {
    let mut s = String::new();
    for v in &o.violations {
        s.push_str(&format!(
            "{}:{}:{}: {} [{}/{}]: {} — {}\n",
            v.path,
            v.line,
            v.col,
            v.what,
            v.rule.code(),
            v.rule.name(),
            short(v.rule),
            v.rule.explain()
        ));
        // Caret snippet: tabs become single spaces so the underline's
        // char-column arithmetic holds on screen.
        let snippet = v.snippet.replace('\t', " ");
        let pad = " ".repeat(v.col.saturating_sub(1));
        let carets = "^".repeat(v.end_col.saturating_sub(v.col).max(1));
        s.push_str(&format!("    {snippet}\n    {pad}{carets}\n"));
    }
    for st in &o.stale {
        s.push_str(&format!(
            "caplint.allow:{}: stale entry {} {} allows {} but {} remain — tighten or remove it\n",
            st.entry.line,
            st.entry.rule.code(),
            st.entry.path,
            st.entry.count,
            st.found
        ));
    }
    s.push_str(&format!(
        "caplint: {} file(s) checked, graph {} fn(s) / {} edge(s), {} violation(s), {} suppressed by baseline, {} stale baseline entr{}\n",
        o.files_checked,
        o.graph_fns,
        o.graph_edges,
        o.violations.len(),
        o.suppressed,
        o.stale.len(),
        if o.stale.len() == 1 { "y" } else { "ies" }
    ));
    s
}

fn short(rule: RuleId) -> &'static str {
    match rule {
        RuleId::R001 => "raw thread spawn",
        RuleId::R002 => "write bypasses atomic_write",
        RuleId::R003 => "nondeterministic hash collection",
        RuleId::R004 => "raw wall-clock read",
        RuleId::R005 => "panic path in hot-path crate",
        RuleId::R006 => "undocumented unsafe",
        RuleId::R007 => "non-workspace dependency",
        RuleId::R008 => "impure sink reachable from kernel",
        RuleId::R009 => "rename without fsync evidence",
        RuleId::R010 => "order-sensitive parallel float fold",
        RuleId::R011 => "unsafe outside its designated homes",
        RuleId::R012 => "element pass may not inline",
    }
}

/// Renders the machine-readable JSON report (sorted, byte-stable).
pub fn render_json(o: &Outcome) -> String {
    let mut s = String::from("{");
    s.push_str(&format!("\"ok\":{},", o.exit_code() == 0));
    s.push_str(&format!("\"files_checked\":{},", o.files_checked));
    s.push_str(&format!("\"graph_fns\":{},", o.graph_fns));
    s.push_str(&format!("\"graph_edges\":{},", o.graph_edges));
    s.push_str(&format!("\"suppressed\":{},", o.suppressed));
    s.push_str("\"violations\":[");
    for (i, v) in o.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"name\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"end_col\":{},\"what\":\"{}\"}}",
            v.rule.code(),
            v.rule.name(),
            json_escape(&v.path),
            v.line,
            v.col,
            v.end_col,
            json_escape(&v.what)
        ));
    }
    s.push_str("],\"stale_allowlist\":[");
    for (i, st) in o.stale.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"allowed\":{},\"found\":{},\"allow_line\":{}}}",
            st.entry.rule.code(),
            json_escape(&st.entry.path),
            st.entry.count,
            st.found,
            st.entry.line
        ));
    }
    s.push_str("]}");
    s
}

/// Escapes a string for embedding in JSON output.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `--list-rules` documentation.
pub fn render_rule_list() -> String {
    let mut s = String::from("caplint rules (scope: non-test code unless noted)\n\n");
    for r in RuleId::ALL {
        s.push_str(&format!("{} {:<22} {}\n", r.code(), r.name(), r.explain()));
    }
    s.push_str(
        "\nBaseline: caplint.allow carries accepted violations as\n\
         `RULE path count justification`; runs fail on new violations (count\n\
         exceeded) and on stale entries (count no longer reached).\n\
         Exemptions: vendor/ sources, tests/ benches/ examples/ dirs and\n\
         #[cfg(test)]/#[test] regions (R006 applies to test code too).\n\
         Graph rules: R008-R010 run on the approximate workspace call graph\n\
         (`caplint graph` prints it); crates/obs and crates/par are the\n\
         designated homes for clock/thread machinery and are not traversed.\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: RuleId, path: &str, line: usize) -> Violation {
        Violation {
            rule,
            path: path.to_string(),
            line,
            col: 5,
            end_col: 6,
            snippet: "    x();".to_string(),
            what: "`x`".to_string(),
        }
    }

    fn entry(rule: RuleId, path: &str, count: usize) -> AllowEntry {
        AllowEntry {
            rule,
            path: path.to_string(),
            count,
            justification: "test".to_string(),
            line: 1,
        }
    }

    #[test]
    fn baseline_suppresses_exact_count() {
        let o = apply_baseline(
            vec![v(RuleId::R001, "a.rs", 3)],
            &[entry(RuleId::R001, "a.rs", 1)],
            1,
        );
        assert!(o.violations.is_empty());
        assert_eq!(o.suppressed, 1);
        assert!(o.stale.is_empty());
        assert_eq!(o.exit_code(), 0);
    }

    #[test]
    fn baseline_overrun_reports_all() {
        let o = apply_baseline(
            vec![v(RuleId::R001, "a.rs", 3), v(RuleId::R001, "a.rs", 9)],
            &[entry(RuleId::R001, "a.rs", 1)],
            1,
        );
        assert_eq!(o.violations.len(), 2);
        assert_eq!(o.exit_code(), 1);
    }

    #[test]
    fn stale_entry_reported_with_distinct_exit_code() {
        let o = apply_baseline(vec![], &[entry(RuleId::R002, "gone.rs", 1)], 0);
        assert!(o.violations.is_empty());
        assert_eq!(o.stale.len(), 1);
        assert_eq!(o.exit_code(), 2);
    }

    #[test]
    fn human_report_carets_underline_the_span() {
        let o = apply_baseline(vec![v(RuleId::R001, "a.rs", 3)], &[], 1);
        let h = render_human(&o);
        assert!(h.contains("a.rs:3:5:"));
        assert!(h.contains("\n        x();\n"));
        // 4-space report indent + 4 columns of padding, then the caret.
        assert!(h.contains("\n        ^\n"));
    }

    #[test]
    fn json_carries_column_span() {
        let o = apply_baseline(vec![v(RuleId::R001, "a.rs", 3)], &[], 1);
        let j = render_json(&o);
        assert!(j.contains("\"col\":5,\"end_col\":6"));
    }

    #[test]
    fn json_is_wellformed_and_escaped() {
        let o = apply_baseline(vec![v(RuleId::R003, "a\"b.rs", 1)], &[], 1);
        let j = render_json(&o);
        assert!(j.contains("\\\"b.rs"));
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"ok\":false"));
    }
}
