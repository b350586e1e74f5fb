//! The per-file rules (R001–R007, R011 and R012): each encodes one
//! load-bearing workspace contract (see DESIGN.md §11). Rules operate on
//! [`MaskedFile`]s, so string literals and
//! comments never trigger false positives, and test regions are
//! exempted where the contract only binds shipping code.

use crate::lexer::{find_word, mask, MaskedFile};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Threads only via the `cap-par` pool.
    R001,
    /// Durable writes only via `cap_obs::fsx::atomic_write`.
    R002,
    /// No iteration-order-nondeterministic hash collections.
    R003,
    /// Wall-clock reads only inside the telemetry layer.
    R004,
    /// No panicking `unwrap`/`expect` in hot-path crates.
    R005,
    /// Every `unsafe` must carry a `// SAFETY:` comment.
    R006,
    /// Only workspace-internal and `vendor/` dependencies.
    R007,
    /// No clock/thread/raw-fs sink reachable from a kernel entry point.
    R008,
    /// `fs::rename` only with reachable fsync/atomic_write evidence.
    R009,
    /// No order-sensitive float `+=` folds over parallel results.
    R010,
    /// `unsafe` only in `simd.rs` or `crates/par`, even with SAFETY.
    R011,
    /// Every element-pass body is `#[inline(always)]`.
    R012,
}

impl RuleId {
    /// All rules, in order.
    pub const ALL: [RuleId; 12] = [
        RuleId::R001,
        RuleId::R002,
        RuleId::R003,
        RuleId::R004,
        RuleId::R005,
        RuleId::R006,
        RuleId::R007,
        RuleId::R008,
        RuleId::R009,
        RuleId::R010,
        RuleId::R011,
        RuleId::R012,
    ];

    /// The stable `Rnnn` code.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::R001 => "R001",
            RuleId::R002 => "R002",
            RuleId::R003 => "R003",
            RuleId::R004 => "R004",
            RuleId::R005 => "R005",
            RuleId::R006 => "R006",
            RuleId::R007 => "R007",
            RuleId::R008 => "R008",
            RuleId::R009 => "R009",
            RuleId::R010 => "R010",
            RuleId::R011 => "R011",
            RuleId::R012 => "R012",
        }
    }

    /// Short kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::R001 => "raw-thread-spawn",
            RuleId::R002 => "non-atomic-write",
            RuleId::R003 => "hash-collection",
            RuleId::R004 => "raw-wall-clock",
            RuleId::R005 => "panic-in-hot-path",
            RuleId::R006 => "undocumented-unsafe",
            RuleId::R007 => "external-dependency",
            RuleId::R008 => "kernel-reaches-impurity",
            RuleId::R009 => "rename-without-fsync",
            RuleId::R010 => "order-sensitive-reduction",
            RuleId::R011 => "unsafe-outside-simd",
            RuleId::R012 => "element-pass-inline",
        }
    }

    /// One-line explanation shown with every finding and by
    /// `--list-rules`.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::R001 => {
                "spawn threads only through the cap-par pool (crates/par); ad-hoc \
                 threads bypass CAP_THREADS determinism and panic recovery"
            }
            RuleId::R002 => {
                "route durable writes through cap_obs::fsx::atomic_write (tmp+rename+fsync); \
                 raw std::fs::write/File::create/OpenOptions can leave torn files after a crash"
            }
            RuleId::R003 => {
                "std HashMap/HashSet iterate in random order, breaking bit-identical \
                 replay; use BTreeMap/BTreeSet or index-keyed Vecs"
            }
            RuleId::R004 => {
                "read the wall clock only inside crates/obs (use cap_obs::clock::now()); \
                 scattered Instant::now/SystemTime::now calls evade the telemetry layer"
            }
            RuleId::R005 => {
                "hot-path crates (tensor/nn/core/data/baselines/models) must surface \
                 failures through their Error types, not .unwrap()/.expect() panics"
            }
            RuleId::R006 => {
                "every `unsafe` must be immediately preceded by (or share a line with) \
                 a // SAFETY: comment stating the upheld invariants"
            }
            RuleId::R007 => {
                "Cargo.toml dependencies must be workspace crates or vendor/ paths \
                 (workspace = true / path = ...); no crates.io, git, or version deps"
            }
            RuleId::R008 => {
                "no wall-clock read, raw std::thread call, or raw std::fs mutation may \
                 be reachable through the call graph from a tensor/nn/scoring kernel \
                 entry point (matmul*, im2col/col2im, conv_forward/conv_input_grad, \
                 conv forward/backward*, evaluate_scores*); crates/obs and crates/par \
                 are the audited homes"
            }
            RuleId::R009 => {
                "a fn calling fs::rename must show durability evidence (sync_all/\
                 sync_data/atomic_write/append_durable) in its body or a reachable \
                 callee — renaming an unsynced file is not crash-durable"
            }
            RuleId::R010 => {
                "float `+=` folds over parallel_map/run_tasks/run_region results depend on \
                 thread count unless routed through a fixed-order tree/wave reduction \
                 (tree_reduce*); bit-identical replay at any CAP_THREADS forbids them"
            }
            RuleId::R011 => {
                "unsafe is confined to simd.rs and crates/par even with a SAFETY \
                 comment; anywhere else it must be explicitly baselined in \
                 caplint.allow with a justification"
            }
            RuleId::R012 => {
                "the `run` of every `impl ElementPass` must be #[inline(always)]: \
                 cap_tensor::run_pass compiles a pass for the pinned SIMD width only \
                 when its body inlines into the frame, and one that does not runs \
                 at the baseline ISA with no other sign"
            }
        }
    }

    /// Parses an `Rnnn` code.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.code() == s)
    }
}

/// One finding: a rule fired at `path:line`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based char column where the match starts.
    pub col: usize,
    /// 1-based char column just past the match, so `col..end_col` is
    /// the caret-underline span.
    pub end_col: usize,
    /// The raw source line, for caret snippets in reports.
    pub snippet: String,
    /// What was matched, e.g. `` `thread::spawn` ``.
    pub what: String,
}

/// Converts a byte offset into `line` to a 1-based char column.
/// Masking blanks multi-byte chars to single spaces, so char columns
/// (not byte columns) are what raw and masked lines agree on.
fn char_col(line: &str, byte: usize) -> usize {
    line[..byte.min(line.len())].chars().count() + 1
}

/// True for paths whose whole content is test/demo code: integration
/// test dirs, benches, and examples. `#[cfg(test)]` regions inside
/// library files are handled separately by the lexer.
pub(crate) fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

struct TextRule {
    id: RuleId,
    /// `(needle, word_boundary)` patterns searched in masked code.
    patterns: &'static [(&'static str, bool)],
    applies: fn(&str) -> bool,
}

const TEXT_RULES: &[TextRule] = &[
    TextRule {
        id: RuleId::R001,
        patterns: &[("thread::spawn", false), ("thread::Builder", false)],
        applies: |p| !p.starts_with("crates/par/src/"),
    },
    TextRule {
        id: RuleId::R002,
        patterns: &[
            ("fs::write", false),
            ("File::create", false),
            ("OpenOptions", true),
        ],
        applies: |p| !p.ends_with("fsx.rs"),
    },
    TextRule {
        id: RuleId::R003,
        patterns: &[("HashMap", true), ("HashSet", true)],
        applies: |_| true,
    },
    TextRule {
        id: RuleId::R004,
        patterns: &[("Instant::now", false), ("SystemTime::now", false)],
        applies: |p| !p.starts_with("crates/obs/src/"),
    },
    TextRule {
        id: RuleId::R005,
        patterns: &[(".unwrap()", false), (".expect(", false)],
        applies: |p| {
            p.starts_with("crates/tensor/src/")
                || p.starts_with("crates/nn/src/")
                || p.starts_with("crates/core/src/")
                || p.starts_with("crates/data/src/")
                || p.starts_with("crates/baselines/src/")
                || p.starts_with("crates/models/src/")
        },
    },
];

/// Runs every Rust-source rule against one file.
///
/// `path` must be workspace-relative with `/` separators — the rules'
/// scoping (pool crate, fsx.rs, hot-path crates, test dirs) is keyed
/// on it.
pub fn check_rust(path: &str, src: &str) -> Vec<Violation> {
    let masked = mask(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let whole_file_test = is_test_path(path);

    for rule in TEXT_RULES {
        if !(rule.applies)(path) {
            continue;
        }
        if whole_file_test {
            continue;
        }
        for (idx, line) in masked.code.iter().enumerate() {
            if masked.test[idx] {
                continue;
            }
            for &(needle, word) in rule.patterns {
                let hit = if word {
                    find_word(line, needle)
                } else {
                    line.find(needle)
                };
                if let Some(pos) = hit {
                    let col = char_col(line, pos);
                    out.push(Violation {
                        rule: rule.id,
                        path: path.to_string(),
                        line: idx + 1,
                        col,
                        end_col: col + needle.chars().count(),
                        snippet: raw_lines.get(idx).copied().unwrap_or("").to_string(),
                        what: format!("`{needle}`"),
                    });
                    break;
                }
            }
        }
    }

    // R006 applies everywhere, including test code: an undocumented
    // unsafe block is equally suspect in a test. R011 additionally
    // confines (even documented) unsafe to its designated homes —
    // `simd.rs` and the pool crate — in shipping code.
    let r011_applies = !path.ends_with("simd.rs") && !path.starts_with("crates/par/src/");
    for (idx, line) in masked.code.iter().enumerate() {
        let Some(pos) = find_word(line, "unsafe") else {
            continue;
        };
        let col = char_col(line, pos);
        let snippet = raw_lines.get(idx).copied().unwrap_or("").to_string();
        if !has_safety_comment(&masked.comments, idx) {
            out.push(Violation {
                rule: RuleId::R006,
                path: path.to_string(),
                line: idx + 1,
                col,
                end_col: col + "unsafe".len(),
                snippet: snippet.clone(),
                what: "`unsafe` without `// SAFETY:`".to_string(),
            });
        }
        if r011_applies && !whole_file_test && !masked.test[idx] {
            out.push(Violation {
                rule: RuleId::R011,
                path: path.to_string(),
                line: idx + 1,
                col,
                end_col: col + "unsafe".len(),
                snippet,
                what: "`unsafe` outside simd.rs / crates/par".to_string(),
            });
        }
    }

    if !whole_file_test {
        out.extend(element_pass_inline(path, &masked, &raw_lines));
    }

    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// R012: in shipping code, every `fn run` directly inside an `impl`
/// block whose header names `ElementPass` before `for` must carry
/// `#[inline(always)]`, among the attributes above it or on its own
/// line. A header may span lines up to its `{`.
fn element_pass_inline(path: &str, masked: &MaskedFile, raw_lines: &[&str]) -> Vec<Violation> {
    let code = &masked.code;
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if masked.test[i] || find_word(&code[i], "impl").is_none() {
            i += 1;
            continue;
        }
        let mut header = String::new();
        let mut end = i;
        while end < code.len() {
            header.push_str(&code[end]);
            header.push(' ');
            if code[end].contains(['{', ';']) {
                break;
            }
            end += 1;
        }
        let header = header.split(['{', ';']).next().unwrap_or("");
        let is_pass = find_word(header, "ElementPass")
            .is_some_and(|at| find_word(&header[at..], "for").is_some());
        if !is_pass {
            i += 1;
            continue;
        }
        // Walk the block; a `fn run` at depth 1 is one of its items.
        let mut depth = 0i64;
        let mut k = i;
        while k < code.len() {
            if depth == 1 {
                if let Some(run) = fn_run_at(&code[k]) {
                    let inline = attrs_above(code, k, &code[k][..run])
                        .any(|attr| attr.replace(' ', "").contains("#[inline(always)]"));
                    if !inline {
                        let col = char_col(&code[k], run);
                        out.push(Violation {
                            rule: RuleId::R012,
                            path: path.to_string(),
                            line: k + 1,
                            col,
                            end_col: col + "run".len(),
                            snippet: raw_lines.get(k).copied().unwrap_or("").to_string(),
                            what: "element-pass `run` without `#[inline(always)]`".to_string(),
                        });
                    }
                }
            }
            for c in code[k].chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if depth <= 0 && k >= end {
                break;
            }
            k += 1;
        }
        i = k + 1;
    }
    out
}

/// The byte offset of `run` when `line` declares `fn run`.
fn fn_run_at(line: &str) -> Option<usize> {
    let at = find_word(line, "fn")?;
    let rest = &line[at + 2..];
    let name = at + 2 + (rest.len() - rest.trim_start().len());
    (find_word(&line[name..], "run") == Some(0)).then_some(name)
}

/// The attribute text that applies to the item on line `k`: `before`
/// (the part of that line ahead of the item), then each line above that
/// is an attribute or holds no code (a comment or a blank line).
fn attrs_above<'a>(
    code: &'a [String],
    k: usize,
    before: &'a str,
) -> impl Iterator<Item = &'a str> + 'a {
    let above = code[..k]
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(|l| l.is_empty() || l.starts_with("#["))
        .filter(|l| !l.is_empty());
    std::iter::once(before).chain(above)
}

/// A `SAFETY:` marker counts when it appears in a comment on the
/// `unsafe` line itself or in the contiguous comment block directly
/// above it (blank code lines allowed in between only if they carry
/// comments).
fn has_safety_comment(comments: &[String], line: usize) -> bool {
    if comments[line].contains("SAFETY") {
        return true;
    }
    let mut i = line;
    while i > 0 {
        i -= 1;
        if comments[i].contains("SAFETY") {
            return true;
        }
        if comments[i].trim().is_empty() {
            return false;
        }
    }
    false
}

/// R007: checks one `Cargo.toml` for non-workspace dependencies.
///
/// Accepted dependency forms: `name.workspace = true`,
/// `name = { workspace = true, ... }`, and `name = { path = "..." }`
/// (all path deps in this workspace point at `crates/` or `vendor/`).
/// Anything with `version`, `git`, or a bare `"x.y"` requirement is an
/// external dependency and violates the zero-dependency guarantee.
pub fn check_manifest(path: &str, src: &str) -> Vec<Violation> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let mut in_dep_table = false; // inside [dependencies]-like section
    let mut dotted_dep: Option<(usize, bool)> = None; // [dependencies.foo]: (header line, seen ok key)

    for (idx, raw) in src.lines().enumerate() {
        let line = strip_toml_comment(raw);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('[') {
            // Close a pending [dependencies.foo] table before the next
            // section starts.
            if let Some((hdr, ok)) = dotted_dep.take() {
                if !ok {
                    out.push(manifest_violation(path, hdr, &lines, "table dependency"));
                }
            }
            let section = trimmed.trim_matches(['[', ']']);
            let is_dep_section = section == "dependencies"
                || section == "dev-dependencies"
                || section == "build-dependencies"
                || section == "workspace.dependencies"
                || section.ends_with(".dependencies");
            let is_dotted_dep = !is_dep_section
                && (section.starts_with("dependencies.")
                    || section.starts_with("dev-dependencies.")
                    || section.starts_with("build-dependencies.")
                    || section.starts_with("workspace.dependencies."));
            in_dep_table = is_dep_section;
            if is_dotted_dep {
                dotted_dep = Some((idx, false));
            }
            continue;
        }
        if let Some((hdr, ok)) = dotted_dep.as_mut() {
            let _ = hdr;
            if trimmed.contains("workspace") && trimmed.contains("true")
                || trimmed.starts_with("path")
            {
                *ok = true;
            }
            continue;
        }
        if !in_dep_table {
            continue;
        }
        let ok = trimmed.contains("workspace = true")
            || trimmed.contains("workspace=true")
            || trimmed.contains("path = ")
            || trimmed.contains("path=");
        if !ok && trimmed.contains('=') {
            out.push(manifest_violation(path, idx, &lines, "dependency"));
        }
    }
    if let Some((hdr, ok)) = dotted_dep {
        if !ok {
            out.push(manifest_violation(path, hdr, &lines, "table dependency"));
        }
    }
    out
}

/// Builds an R007 finding at 0-based line `idx`, underlining the
/// comment-stripped content of the line.
fn manifest_violation(path: &str, idx: usize, lines: &[&str], kind: &str) -> Violation {
    let raw = lines.get(idx).copied().unwrap_or("");
    let stripped = strip_toml_comment(raw);
    let trimmed = stripped.trim();
    let col = stripped
        .find(|c: char| !c.is_whitespace())
        .map_or(1, |b| char_col(stripped, b));
    Violation {
        rule: RuleId::R007,
        path: path.to_string(),
        line: idx + 1,
        col,
        end_col: col + trimmed.chars().count().max(1),
        snippet: raw.to_string(),
        what: format!("{kind} without `workspace = true` or `path = ...`"),
    }
}

/// Removes a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_roundtrip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.code()), Some(r));
            assert!(!r.explain().is_empty());
            assert!(!r.name().is_empty());
        }
        assert_eq!(RuleId::parse("R999"), None);
    }

    #[test]
    fn manifest_accepts_workspace_and_path() {
        let toml = "[dependencies]\ncap-obs.workspace = true\nrand = { path = \"../rand\" }\n";
        assert!(check_manifest("crates/x/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn manifest_rejects_version_and_git() {
        let toml = "[dependencies]\nserde = \"1.0\"\nfoo = { git = \"https://x\" }\n";
        let v = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == RuleId::R007));
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
    }

    #[test]
    fn manifest_ignores_package_metadata() {
        let toml = "[package]\nversion.workspace = true\nedition = \"2021\"\n";
        assert!(check_manifest("crates/x/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn dotted_dependency_tables() {
        let ok = "[dependencies.cap-nn]\nworkspace = true\n";
        assert!(check_manifest("crates/x/Cargo.toml", ok).is_empty());
        let bad = "[dependencies.serde]\nversion = \"1\"\n";
        assert_eq!(check_manifest("crates/x/Cargo.toml", bad).len(), 1);
    }
}
