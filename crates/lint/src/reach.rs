//! Graph-based rules R008–R010: checks that need to see across files,
//! which the per-line scanner structurally cannot.
//!
//! - **R008** `kernel-reaches-impurity` — no wall-clock read, raw
//!   `std::thread` call, or raw `std::fs` mutation may be *reachable*
//!   (transitively, through the call graph) from a tensor/nn hot-path
//!   entry point. This generalizes R001/R002/R004 from "don't mention
//!   it in this file" to "can't reach it from a kernel": a kernel
//!   calling a helper in another crate that calls `thread::sleep` is
//!   invisible per-file, but breaks `CAP_THREADS` bit-identical timing
//!   guarantees all the same. `crates/obs` and `crates/par` are the
//!   designated homes for clock/thread machinery — kernels are
//!   *instrumented* with spans whose implementation reads the clock —
//!   so nodes there are neither scanned nor traversed.
//! - **R009** `rename-without-fsync` — a fn that calls `fs::rename`
//!   must have fsync evidence (`sync_all`/`sync_data`/`atomic_write`/
//!   `append_durable`) in its own body or in a reachable callee; a
//!   rename of an unsynced file is not durable after power loss.
//!   `fsx.rs` itself is the blessed implementation.
//! - **R010** `order-sensitive-reduction` — a float `+=` fold over
//!   results produced by `parallel_map`/`run_tasks` is flagged unless
//!   the fn routes through a blessed fixed-order `tree_reduce*`
//!   helper. Summation order must not depend on thread count.
//!
//! All three are over-approximations tuned to be *quiet on this
//! workspace*: unknown accumulator types don't fire R010, unknown
//! call targets simply add no edges, and the count-based allowlist
//! covers anything that is individually justified.

use crate::graph::{Deps, Graph};
use crate::lexer::find_word;
use crate::parse::ParsedFile;
use crate::rules::{RuleId, Violation};

/// Hot-path entry points: `(path predicate, name predicate)`.
/// A node is an entry when its file matches and its name matches.
fn is_entry(path: &str, name: &str) -> bool {
    (path == "crates/tensor/src/matmul.rs" && name.starts_with("matmul"))
        || (path == "crates/tensor/src/conv.rs"
            && (name.starts_with("im2col")
                || name.starts_with("col2im")
                || name == "conv_forward"
                || name == "conv_input_grad"))
        || (path == "crates/nn/src/layer/conv.rs"
            && (name == "forward" || name.starts_with("backward")))
        || (path == "crates/core/src/score.rs" && name.starts_with("evaluate_scores"))
}

/// Designated homes for clock/thread/IO machinery: not scanned for
/// sinks, not traversed through. Kernels may be instrumented with
/// spans (obs) and must use the pool (par); both read clocks/spawn
/// threads *by design*, behind their own audited doorways.
fn is_home(path: &str) -> bool {
    path.starts_with("crates/obs/src/") || path.starts_with("crates/par/src/")
}

/// R008 sink needles: `(needle, word_bounded, category)`.
const SINKS: &[(&str, bool, &str)] = &[
    ("Instant::now", false, "wall-clock"),
    ("SystemTime::now", false, "wall-clock"),
    ("thread::spawn", false, "raw thread"),
    ("thread::Builder", false, "raw thread"),
    ("thread::sleep", false, "raw thread"),
    ("thread::park", false, "raw thread"),
    ("thread::yield_now", false, "raw thread"),
    ("fs::write", false, "raw fs write"),
    ("File::create", false, "raw fs write"),
    ("OpenOptions", true, "raw fs write"),
    ("fs::rename", false, "raw fs write"),
];

/// Durability evidence needles for R009.
const FSYNC_EVIDENCE: &[&str] = &[
    "sync_all",
    "sync_data",
    "fsync",
    "atomic_write",
    "append_durable",
];

/// Runs all graph rules. `files` is the parsed workspace, `graph` was
/// built from it. Violations come back sorted by (path, line, rule).
pub fn check_graph(files: &[ParsedFile], graph: &Graph, deps: &Deps) -> Vec<Violation> {
    let _ = deps;
    let mut out = Vec::new();
    check_r008(files, graph, &mut out);
    check_r009(files, graph, &mut out);
    check_r010(files, graph, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Scans a node's body for the first matching needle from `needles`.
/// Test-marked lines are skipped. Returns `(needle_idx, line, col)`.
fn body_find(
    files: &[ParsedFile],
    graph: &Graph,
    node: usize,
    needles: &[(&str, bool)],
) -> Option<(usize, usize, usize)> {
    let n = &graph.nodes[node];
    let f = &files[n.file];
    let (start, end) = f.fns[n.item].body?;
    for line_no in start..=end {
        let idx = line_no - 1;
        let Some(code) = f.masked.code.get(idx) else {
            break;
        };
        if f.masked.test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for (ni, &(needle, word)) in needles.iter().enumerate() {
            let hit = if word {
                find_word(code, needle)
            } else {
                code.find(needle)
            };
            if let Some(pos) = hit {
                let col = code[..pos].chars().count() + 1;
                return Some((ni, line_no, col));
            }
        }
    }
    None
}

/// BFS from `start` over the graph. `enter` filters which nodes are
/// traversed *through* (the start node is always visited). Returns
/// visit order and parent indices for chain reconstruction.
fn bfs(
    graph: &Graph,
    start: usize,
    enter: impl Fn(&str) -> bool,
) -> (Vec<usize>, Vec<Option<usize>>) {
    let mut visited = vec![false; graph.nodes.len()];
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in &graph.adjacency[u] {
            if !visited[v] && enter(&graph.nodes[v].path) {
                visited[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (order, parent)
}

/// Renders `entry -> a -> b` from BFS parent pointers.
fn chain(graph: &Graph, parent: &[Option<usize>], mut node: usize) -> String {
    let mut names = vec![graph.nodes[node].label()];
    while let Some(p) = parent[node] {
        names.push(graph.nodes[p].label());
        node = p;
    }
    names.reverse();
    names.join(" -> ")
}

fn check_r008(files: &[ParsedFile], graph: &Graph, out: &mut Vec<Violation>) {
    let needles: Vec<(&str, bool)> = SINKS.iter().map(|&(n, w, _)| (n, w)).collect();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !is_entry(&node.path, &node.name) || is_home(&node.path) {
            continue;
        }
        let (order, parent) = bfs(graph, i, |p| !is_home(p));
        // BFS order => the first hit reports the shortest call chain.
        let hit = order
            .iter()
            .find_map(|&v| body_find(files, graph, v, &needles).map(|h| (v, h)));
        let Some((via, (ni, sink_line, _))) = hit else {
            continue;
        };
        let (needle, _, category) = SINKS[ni];
        let f = &files[node.file];
        let what = if via == i {
            format!(
                "`{needle}` ({category}) in hot-path entry `{}`",
                node.label()
            )
        } else {
            format!(
                "`{needle}` ({category}) reachable from hot-path entry: {} (at {}:{})",
                chain(graph, &parent, via),
                graph.nodes[via].path,
                sink_line
            )
        };
        out.push(Violation {
            rule: RuleId::R008,
            path: node.path.clone(),
            line: node.line,
            col: node.col,
            end_col: node.col + node.name.chars().count(),
            snippet: f.raw.get(node.line - 1).cloned().unwrap_or_default(),
            what,
        });
    }
}

fn check_r009(files: &[ParsedFile], graph: &Graph, out: &mut Vec<Violation>) {
    let evidence: Vec<(&str, bool)> = FSYNC_EVIDENCE.iter().map(|&n| (n, false)).collect();
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.path.ends_with("fsx.rs") {
            continue;
        }
        let Some((_, line, col)) = body_find(files, graph, i, &[("fs::rename", false)]) else {
            continue;
        };
        // Evidence may live in any reachable callee — including the
        // obs home: routing through fsx *is* the fix.
        let (order, _) = bfs(graph, i, |_| true);
        let synced = order
            .iter()
            .any(|&v| body_find(files, graph, v, &evidence).is_some());
        if synced {
            continue;
        }
        let f = &files[node.file];
        out.push(Violation {
            rule: RuleId::R009,
            path: node.path.clone(),
            line,
            col,
            end_col: col + "fs::rename".chars().count(),
            snippet: f.raw.get(line - 1).cloned().unwrap_or_default(),
            what: format!(
                "`fs::rename` in `{}` with no reachable fsync/atomic_write",
                node.label()
            ),
        });
    }
}

/// One masked body char with its source position.
struct BodyChar {
    c: char,
    line: usize,
    col: usize,
    test: bool,
}

/// Flattens a fn body's masked lines into a char vec (newlines
/// included so statement back-walks terminate naturally).
fn flatten_body(f: &ParsedFile, start: usize, end: usize) -> Vec<BodyChar> {
    let mut out = Vec::new();
    for line_no in start..=end {
        let idx = line_no - 1;
        let Some(code) = f.masked.code.get(idx) else {
            break;
        };
        let test = f.masked.test.get(idx).copied().unwrap_or(false);
        for (ci, c) in code.chars().enumerate() {
            out.push(BodyChar {
                c,
                line: line_no,
                col: ci + 1,
                test,
            });
        }
        out.push(BodyChar {
            c: '\n',
            line: line_no,
            col: code.chars().count() + 1,
            test,
        });
    }
    out
}

fn flat_index(body: &[BodyChar], line: usize, col: usize) -> Option<usize> {
    body.iter().position(|b| b.line == line && b.col == col)
}

/// Index just past the group closed by the delimiter matching
/// `body[open]` (`(` or `{`).
fn match_delim(body: &[BodyChar], open: usize) -> usize {
    let (o, c) = match body.get(open).map(|b| b.c) {
        Some('(') => ('(', ')'),
        Some('{') => ('{', '}'),
        _ => return open + 1,
    };
    let mut depth = 0i64;
    for (i, b) in body.iter().enumerate().skip(open) {
        if b.c == o {
            depth += 1;
        } else if b.c == c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    body.len()
}

/// Walks backwards from `pos` to the statement start (`;`, `{`, `}`)
/// and returns the statement text before `pos`.
fn stmt_before(body: &[BodyChar], pos: usize) -> String {
    let mut start = pos;
    while start > 0 {
        let c = body[start - 1].c;
        if c == ';' || c == '{' || c == '}' {
            break;
        }
        start -= 1;
    }
    body[start..pos].iter().map(|b| b.c).collect()
}

/// Extracts bound identifiers from a `let`-statement prefix like
/// `let mut acc = ` or `let (a, b) = ` (empty when not a let).
fn let_bindings(stmt: &str) -> Vec<String> {
    let Some(pos) = find_word(stmt, "let") else {
        return Vec::new();
    };
    let after = &stmt[pos + 3..];
    let eq = after.find('=').unwrap_or(after.len());
    let pat = &after[..eq];
    let mut out = Vec::new();
    for word in pat
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
    {
        if word == "mut" || word == "let" {
            continue;
        }
        if word
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
        {
            out.push(word.to_string());
        }
        // Type ascription after `:` may add uppercase words; harmless
        // extra entries only widen matching slightly.
    }
    out
}

/// Float evidence classifier for an accumulator `let` initializer or a
/// `+=` right-hand side: `Some(true)` float, `Some(false)` integer,
/// `None` unknown.
fn float_class(text: &str) -> Option<bool> {
    if text.contains("f32") || text.contains("f64") {
        return Some(true);
    }
    // A `1.` / `0.0` style literal.
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'.'
            && i > 0
            && bytes[i - 1].is_ascii_digit()
            && bytes.get(i + 1).is_none_or(|n| !n.is_ascii_alphabetic())
        {
            return Some(true);
        }
    }
    for int_marker in [
        "usize", "isize", "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64",
    ] {
        if text.contains(int_marker) {
            return Some(false);
        }
    }
    let t = text.trim();
    if t == "0" || t.starts_with("0;") || t.starts_with("0 ") {
        return Some(false);
    }
    None
}

/// Trigger calls whose results must not be folded with bare `+=`.
const TRIGGERS: &[&str] = &["parallel_map", "run_tasks"];

/// Fixed-order reduction helpers that bless the whole fn.
fn is_blessed_call(name: &str) -> bool {
    name.starts_with("tree_reduce")
}

fn check_r010(files: &[ParsedFile], graph: &Graph, out: &mut Vec<Violation>) {
    for node in &graph.nodes {
        let f = &files[node.file];
        let item = &f.fns[node.item];
        let Some((start, end)) = item.body else {
            continue;
        };
        let triggers: Vec<_> = item
            .calls
            .iter()
            .filter(|c| TRIGGERS.contains(&c.name.as_str()))
            .collect();
        if triggers.is_empty() {
            continue;
        }
        if item.calls.iter().any(|c| is_blessed_call(&c.name)) {
            continue;
        }
        let body = flatten_body(f, start, end);
        // Trigger call positions, their argument spans, and the
        // identifiers their results land in.
        let mut first_trigger = usize::MAX;
        let mut arg_spans: Vec<(usize, usize)> = Vec::new();
        let mut bindings: Vec<String> = Vec::new();
        for t in &triggers {
            let Some(fpos) = flat_index(&body, t.line, t.col) else {
                continue;
            };
            first_trigger = first_trigger.min(fpos);
            // The `(` follows the name (possibly via `::<...>`); find it.
            let mut open = fpos;
            while open < body.len() && body[open].c != '(' && body[open].c != '\n' {
                open += 1;
            }
            let span_end = match_delim(&body, open);
            arg_spans.push((open, span_end));
            let stmt = stmt_before(&body, fpos);
            let lets = let_bindings(&stmt);
            if !lets.is_empty() {
                bindings.extend(lets);
            } else if t.name == "run_tasks" {
                // run_tasks returns (); its results live in captured
                // buffers. Track `let mut X = <vec-ish>` bindings that
                // the task closure captures.
                let arg_text: String = body[open..span_end].iter().map(|b| b.c).collect();
                for line_no in start..t.line {
                    let Some(code) = f.masked.code.get(line_no - 1) else {
                        continue;
                    };
                    if let Some(p) = find_word(code, "let") {
                        let rest = &code[p..];
                        if !(rest.contains("vec!")
                            || rest.contains("Vec::")
                            || rest.contains("with_capacity"))
                        {
                            continue;
                        }
                        for b in let_bindings(rest) {
                            if find_word(&arg_text, &b).is_some() {
                                bindings.push(b);
                            }
                        }
                    }
                }
            }
        }
        bindings.sort();
        bindings.dedup();
        if bindings.is_empty() || first_trigger == usize::MAX {
            continue;
        }
        // `for` loop headers in the body, with loop body spans.
        let loops = for_loops(&body);
        // Scan for `+=` after the first trigger, outside trigger args.
        let chars: Vec<char> = body.iter().map(|b| b.c).collect();
        for i in first_trigger..chars.len().saturating_sub(1) {
            if !(chars[i] == '+' && chars[i + 1] == '=') {
                continue;
            }
            if i > 0 && (chars[i - 1] == '+' || chars[i - 1] == '=') {
                continue;
            }
            if body[i].test {
                continue;
            }
            if arg_spans.iter().any(|&(s, e)| i >= s && i < e) {
                continue;
            }
            let line_no = body[i].line;
            let line_text = f.masked.code.get(line_no - 1).cloned().unwrap_or_default();
            let mentions = |text: &str| bindings.iter().any(|b| find_word(text, b).is_some());
            let relevant = mentions(&line_text)
                || loops
                    .iter()
                    .any(|l| i >= l.body_start && i < l.body_end && mentions(&l.header));
            if !relevant {
                continue;
            }
            // Float evidence: accumulator's `let` init, or the RHS.
            let lhs: String = {
                let stmt = stmt_before(&body, i);
                stmt.trim().to_string()
            };
            let acc_root = lhs
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .find(|w| !w.is_empty())
                .unwrap_or("")
                .to_string();
            let rhs_end = chars[i..]
                .iter()
                .position(|&c| c == ';' || c == '\n')
                .map_or(chars.len(), |p| i + p);
            let rhs: String = chars[i + 2..rhs_end].iter().collect();
            let init_class = acc_init_class(f, start, line_no, &acc_root);
            let is_float = match init_class {
                Some(cls) => cls,
                None => float_class(&rhs) == Some(true),
            };
            if !is_float {
                continue;
            }
            let col = body[i].col;
            out.push(Violation {
                rule: RuleId::R010,
                path: node.path.clone(),
                line: line_no,
                col,
                end_col: col + 2,
                snippet: f.raw.get(line_no - 1).cloned().unwrap_or_default(),
                what: format!(
                    "order-sensitive float `+=` over `{}` from `{}` in `{}` (use a fixed-order tree/wave reduction)",
                    bindings.join("`/`"),
                    triggers
                        .iter()
                        .map(|t| t.name.as_str())
                        .collect::<Vec<_>>()
                        .join("`/`"),
                    node.label()
                ),
            });
            break; // one finding per fn keeps reports readable
        }
    }
}

/// Finds the `let` initializer for `acc` between the body start and
/// `before_line`, and classifies it via [`float_class`].
fn acc_init_class(f: &ParsedFile, start: usize, before_line: usize, acc: &str) -> Option<bool> {
    if acc.is_empty() {
        return None;
    }
    for line_no in (start..before_line).rev() {
        let Some(code) = f.masked.code.get(line_no - 1) else {
            continue;
        };
        let Some(p) = find_word(code, "let") else {
            continue;
        };
        let rest = &code[p..];
        if !let_bindings(rest).iter().any(|b| b == acc) {
            continue;
        }
        let init = rest.split_once('=').map(|(_, r)| r).unwrap_or("");
        return float_class(init);
    }
    None
}

/// A `for` loop: its header text and the flat span of its body.
struct ForLoop {
    header: String,
    body_start: usize,
    body_end: usize,
}

/// Extracts `for <header> {` loops from a flattened body. The header
/// runs to the first `{` — a closure brace inside the header would cut
/// it short, which only makes matching more conservative.
fn for_loops(body: &[BodyChar]) -> Vec<ForLoop> {
    let chars: Vec<char> = body.iter().map(|b| b.c).collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 3 < chars.len() {
        let is_word_start = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        if is_word_start
            && chars[i] == 'f'
            && chars[i + 1] == 'o'
            && chars[i + 2] == 'r'
            && !(chars[i + 3].is_alphanumeric() || chars[i + 3] == '_')
        {
            let mut open = i + 3;
            while open < chars.len() && chars[open] != '{' && chars[open] != ';' {
                open += 1;
            }
            if open < chars.len() && chars[open] == '{' {
                let end = match_delim(body, open);
                out.push(ForLoop {
                    header: chars[i..open].iter().collect(),
                    body_start: open,
                    body_end: end,
                });
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, Deps};
    use crate::parse::parse_file;

    fn run(files: Vec<ParsedFile>) -> Vec<Violation> {
        let deps = Deps::default();
        let graph = build(&files, &deps);
        check_graph(&files, &graph, &deps)
    }

    #[test]
    fn r008_fires_through_a_cross_file_chain() {
        let v = run(vec![
            parse_file(
                "crates/tensor/src/matmul.rs",
                "use crate::util::stall;\npub fn matmul_x() { stall(); }\n",
            ),
            parse_file(
                "crates/tensor/src/util.rs",
                "pub fn stall() { std::thread::sleep(d); }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::R008);
        assert_eq!(v[0].path, "crates/tensor/src/matmul.rs");
        assert!(v[0].what.contains("matmul_x -> stall"), "{}", v[0].what);
        assert!(v[0].what.contains("thread::sleep"));
    }

    #[test]
    fn r008_covers_the_conv_entry_points() {
        let v = run(vec![
            parse_file(
                "crates/tensor/src/conv.rs",
                "use crate::simd::tile;\npub fn conv_forward() { tile(); }\npub fn conv_input_grad() { tile(); }\npub fn conv_output_size() { tile(); }\n",
            ),
            parse_file(
                "crates/tensor/src/simd.rs",
                "pub fn tile() { std::thread::yield_now(); }\n",
            ),
        ]);
        let entries: Vec<&str> = v.iter().map(|v| v.what.as_str()).collect();
        assert_eq!(v.len(), 2, "{entries:?}");
        assert!(v.iter().all(|v| v.rule == RuleId::R008));
        assert!(entries[0].contains("conv_forward -> tile"), "{entries:?}");
        assert!(
            entries[1].contains("conv_input_grad -> tile"),
            "{entries:?}"
        );
    }

    #[test]
    fn r008_ignores_obs_home_and_non_entries() {
        let v = run(vec![
            parse_file(
                "crates/tensor/src/matmul.rs",
                "use cap_obs::span::enter;\npub fn matmul_x() { enter(); }\n",
            ),
            parse_file(
                "crates/obs/src/span.rs",
                "pub fn enter() { let t = std::time::Instant::now(); }\n",
            ),
            parse_file(
                "crates/fleet/src/sup.rs",
                "pub fn wait() { std::thread::sleep(d); }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r009_requires_fsync_evidence_possibly_cross_file() {
        let bad = run(vec![parse_file(
            "crates/x/src/io.rs",
            "pub fn publish() { std::fs::rename(a, b); }\n",
        )]);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, RuleId::R009);
        let ok_local = run(vec![parse_file(
            "crates/x/src/io.rs",
            "pub fn publish() { f.sync_all(); std::fs::rename(a, b); }\n",
        )]);
        assert!(ok_local.is_empty(), "{ok_local:?}");
        let ok_cross = run(vec![
            parse_file(
                "crates/x/src/io.rs",
                "use crate::util::flush;\npub fn publish() { flush(f); std::fs::rename(a, b); }\n",
            ),
            parse_file(
                "crates/x/src/util.rs",
                "pub fn flush(f: &File) { f.sync_all(); }\n",
            ),
        ]);
        assert!(ok_cross.is_empty(), "{ok_cross:?}");
    }

    #[test]
    fn r010_flags_float_folds_but_not_int_or_blessed() {
        let bad = run(vec![parse_file(
            "crates/x/src/red.rs",
            "pub fn s(n: usize) -> f64 {\n    let parts = cap_par::parallel_map(n, |i| i as f64);\n    let mut acc = 0.0f64;\n    for p in parts {\n        acc += p;\n    }\n    acc\n}\n",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, RuleId::R010);
        assert_eq!(bad[0].line, 5);

        let int = run(vec![parse_file(
            "crates/x/src/red.rs",
            "pub fn s(n: usize) -> usize {\n    let parts = cap_par::parallel_map(n, |i| i);\n    let mut acc = 0usize;\n    for p in parts {\n        acc += p;\n    }\n    acc\n}\n",
        )]);
        assert!(int.is_empty(), "integer folds are fine: {int:?}");

        let blessed = run(vec![parse_file(
            "crates/x/src/red.rs",
            "pub fn s(n: usize) -> f64 {\n    let parts = cap_par::parallel_map(n, |i| i as f64);\n    let mut acc = 0.0f64;\n    for p in tree_reduce_pairs(parts) {\n        acc += p;\n    }\n    acc\n}\n",
        )]);
        assert!(
            blessed.is_empty(),
            "tree_reduce blesses the fn: {blessed:?}"
        );
    }

    #[test]
    fn r010_ignores_accumulation_inside_the_closure_or_before_the_call() {
        let v = run(vec![parse_file(
            "crates/x/src/red.rs",
            "pub fn s(xs: &[f32]) -> f32 {\n    let mut tau = 0.0f32;\n    for x in xs {\n        tau += x;\n    }\n    let parts = cap_par::parallel_map(4, |i| {\n        let mut local = 0.0f32;\n        local += i as f32;\n        local\n    });\n    tau\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r010_tracks_run_tasks_captured_buffers() {
        let v = run(vec![parse_file(
            "crates/x/src/red.rs",
            "pub fn s() -> f32 {\n    let mut parts = vec![0.0f32; 4];\n    cap_par::run_tasks(make(&mut parts));\n    let mut acc = 0.0f32;\n    for p in &parts {\n        acc += p;\n    }\n    acc\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::R010);
    }
}
