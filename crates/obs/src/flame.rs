//! Deterministic flamegraph rendering from folded stacks.
//!
//! Input is the folded-stack text format of a run directory's
//! `profile.folded` ([`crate::span_stacks`] rendered by
//! [`folded_string`]): one stack per line, frames joined by `;`, a
//! space, then the stack's self time in µs — e.g.
//!
//! ```text
//! core.prune.iteration;core.prune.finetune;nn.fit 124
//! ```
//!
//! [`parse_folded`] is hostile-input safe: arbitrary bytes never
//! panic, malformed lines are skipped, an unterminated final line
//! (torn tail from a reader racing a writer) is dropped cleanly, and
//! per-line length/depth caps bound memory.
//!
//! [`render_svg`] produces a self-contained SVG **byte-stably**: the
//! same stacks always render to byte-identical output (BTreeMap
//! ordering, fixed `{:.2}` coordinate formatting, name-hash colors —
//! no clocks, no randomness), so profile artifacts diff cleanly in CI.
//! [`render_diff_svg`] renders a differential flamegraph of two
//! profiles (e.g. `CAP_SIMD=scalar` vs `auto`): frame widths are
//! proportional to combined time share so both runs stay visible,
//! and fill shifts red where the second profile spends a larger
//! fraction of its time, blue where a smaller one.

use std::collections::BTreeMap;

/// Longest folded line considered by the parser.
const MAX_LINE: usize = 4096;
/// Deepest stack considered by the parser.
const MAX_DEPTH: usize = 128;

const WIDTH: f64 = 1200.0;
const ROW: f64 = 17.0;
const HEADER: f64 = 38.0;
/// Approximate glyph advance of the embedded monospace font at 11px.
const CHAR_W: f64 = 6.6;

/// Renders folded-stack lines from `stacks` (one `stack weight` line
/// each, trailing newline; empty input renders to the empty string).
pub fn folded_string(stacks: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (stack, weight) in stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

/// Parses folded-stack text into sorted `(stack, count)` pairs,
/// merging duplicate stacks. Never panics on arbitrary input: lines
/// that are overlong, missing a count, zero-count, over-deep, or
/// containing empty frames are skipped, and a final line without a
/// terminating newline (a torn tail) is ignored.
pub fn parse_folded(text: &str) -> Vec<(String, u64)> {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    // Only newline-terminated lines are trusted; a writer may still be
    // appending to the last one.
    let complete = match text.rfind('\n') {
        Some(pos) => &text[..pos + 1],
        None => "",
    };
    for line in complete.lines() {
        if line.is_empty() || line.len() > MAX_LINE {
            continue;
        }
        let Some((stack, count)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(count) = count.parse::<u64>() else {
            continue;
        };
        let stack = stack.trim();
        if stack.is_empty() || count == 0 {
            continue;
        }
        let mut frames = 0usize;
        let mut bad = false;
        for frame in stack.split(';') {
            frames += 1;
            if frame.is_empty() {
                bad = true;
            }
        }
        if bad || frames > MAX_DEPTH {
            continue;
        }
        *agg.entry(stack.to_string()).or_insert(0) += count;
    }
    agg.into_iter().collect()
}

/// A frame-tree node; `total` counts the primary profile, `base` the
/// baseline profile (zero outside diff mode). Both are inclusive of
/// children.
#[derive(Default)]
struct Node {
    children: BTreeMap<String, Node>,
    total: u64,
    base: u64,
}

impl Node {
    fn insert(&mut self, frames: &[&str], count: u64, baseline: bool) {
        if baseline {
            self.base += count;
        } else {
            self.total += count;
        }
        if let Some((first, rest)) = frames.split_first() {
            self.children
                .entry((*first).to_string())
                .or_default()
                .insert(rest, count, baseline);
        }
    }

    /// Layout weight: in diff mode the sum is additive across both
    /// profiles, so children always tile their parent exactly.
    fn value(&self) -> u64 {
        self.total + self.base
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Node::depth).max().unwrap_or(0)
    }
}

fn build_tree(stacks: &[(String, u64)], baseline: bool, root: &mut Node) {
    for (stack, count) in stacks {
        let frames: Vec<&str> = stack.split(';').collect();
        root.insert(&frames, *count, baseline);
    }
}

/// FNV-1a, the workspace's stock deterministic hash.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Classic warm flamegraph palette, deterministic per frame name.
fn warm_color(name: &str) -> String {
    let h = fnv1a(name);
    let r = 205 + (h % 50);
    let g = (h >> 8) % 180;
    let b = (h >> 16) % 55;
    format!("rgb({r},{g},{b})")
}

/// Diff palette: red where the frame's share of run time grew, blue
/// where it shrank, white when unchanged. Saturates at a 10-point
/// share shift.
fn diff_color(share_delta: f64) -> String {
    let k = (share_delta.abs() * 10.0).min(1.0);
    let fade = (255.0 - 195.0 * k).round() as u64;
    if share_delta >= 0.0 {
        format!("rgb(255,{fade},{fade})")
    } else {
        format!("rgb({fade},{fade},255)")
    }
}

enum Mode {
    Single,
    /// Baseline / primary grand totals, for share computations.
    Diff(f64, f64),
}

/// Renders a self-contained, byte-stable flamegraph SVG ("icicle"
/// orientation: root on top). An empty profile renders a valid SVG
/// stating that no time was recorded.
pub fn render_svg(stacks: &[(String, u64)], title: &str) -> String {
    let mut root = Node::default();
    build_tree(stacks, false, &mut root);
    render(&root, title, &Mode::Single)
}

/// Renders a differential flamegraph: `a` is the baseline profile,
/// `b` the one under scrutiny. Frame widths are proportional to the
/// frame's combined time so frames present in only one
/// profile remain visible; color encodes the share shift from `a` to
/// `b`.
pub fn render_diff_svg(a: &[(String, u64)], b: &[(String, u64)], title: &str) -> String {
    let mut root = Node::default();
    build_tree(a, true, &mut root);
    build_tree(b, false, &mut root);
    render(
        &root,
        title,
        &Mode::Diff(root.base.max(1) as f64, root.total.max(1) as f64),
    )
}

fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

fn render(root: &Node, title: &str, mode: &Mode) -> String {
    let depth = if root.children.is_empty() {
        1
    } else {
        root.depth()
    };
    let height = HEADER + depth as f64 * ROW + 12.0;
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height:.2}\" \
         viewBox=\"0 0 {WIDTH} {height:.2}\" font-family=\"monospace\" font-size=\"11\">\n"
    ));
    out.push_str("<style>rect{stroke:#fff;stroke-width:0.5}text{pointer-events:none}</style>\n");
    out.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height:.2}\" fill=\"#f8f8f8\"/>\n"
    ));
    let subtitle = match mode {
        Mode::Single => format!("{} µs", root.total),
        Mode::Diff(..) => format!("{} vs {} µs", root.base, root.total),
    };
    out.push_str(&format!(
        "<text x=\"8\" y=\"16\" font-size=\"13\" fill=\"#222\">{} — {}</text>\n",
        esc(title),
        subtitle
    ));
    if root.value() == 0 {
        out.push_str(&format!(
            "<text x=\"8\" y=\"{:.2}\" fill=\"#666\">no time recorded</text>\n",
            HEADER + 12.0
        ));
        out.push_str("</svg>\n");
        return out;
    }
    let px = WIDTH / root.value() as f64;
    write_frame(&mut out, "all", root, 0.0, 0, px, root, mode);
    out.push_str("</svg>\n");
    out
}

#[allow(clippy::too_many_arguments)]
fn write_frame(
    out: &mut String,
    name: &str,
    node: &Node,
    x: f64,
    depth: usize,
    px: f64,
    root: &Node,
    mode: &Mode,
) {
    let w = node.value() as f64 * px;
    if w < 0.1 {
        return;
    }
    let y = HEADER + depth as f64 * ROW;
    let (fill, tip) = match mode {
        Mode::Single => {
            let pct = 100.0 * node.total as f64 / root.total.max(1) as f64;
            (
                warm_color(name),
                format!("{name}: {} µs ({pct:.1}%)", node.total),
            )
        }
        Mode::Diff(a_total, b_total) => {
            let a_share = node.base as f64 / a_total;
            let b_share = node.total as f64 / b_total;
            (
                diff_color(b_share - a_share),
                format!(
                    "{name}: {} → {} µs ({:.1}% → {:.1}%)",
                    node.base,
                    node.total,
                    100.0 * a_share,
                    100.0 * b_share
                ),
            )
        }
    };
    out.push_str(&format!(
        "<g><title>{}</title><rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" \
         height=\"{:.2}\" fill=\"{fill}\"/>",
        esc(&tip),
        ROW - 1.0
    ));
    let max_chars = ((w - 6.0) / CHAR_W) as usize;
    if max_chars >= 3 {
        let shown: String = if name.chars().count() > max_chars {
            let head: String = name.chars().take(max_chars.saturating_sub(2)).collect();
            format!("{head}..")
        } else {
            name.to_string()
        };
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\" fill=\"#111\">{}</text>",
            x + 3.0,
            y + 12.0,
            esc(&shown)
        ));
    }
    out.push_str("</g>\n");
    let mut child_x = x;
    for (child_name, child) in &node.children {
        write_frame(out, child_name, child, child_x, depth + 1, px, root, mode);
        child_x += child.value() as f64 * px;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_lines_and_merges_duplicates() {
        let text = "a;b 3\na;b 2\nc 1\n";
        assert_eq!(
            parse_folded(text),
            vec![("a;b".to_string(), 5), ("c".to_string(), 1)]
        );
    }

    #[test]
    fn parse_drops_torn_tail_and_malformed_lines() {
        let text = "ok 2\nno_count\nbad NaN\nempty;;frame 1\n 3\nzero 0\ntorn;tail 9";
        assert_eq!(parse_folded(text), vec![("ok".to_string(), 2)]);
        assert_eq!(parse_folded("no newline at all 5"), vec![]);
        assert_eq!(parse_folded(""), vec![]);
    }

    #[test]
    fn parse_caps_line_length_and_depth() {
        let long = format!("{} 1\n", "x".repeat(MAX_LINE + 10));
        assert_eq!(parse_folded(&long), vec![]);
        let deep = format!("{} 1\n", vec!["f"; MAX_DEPTH + 1].join(";"));
        assert_eq!(parse_folded(&deep), vec![]);
        let ok_deep = format!("{} 1\n", vec!["f"; MAX_DEPTH].join(";"));
        assert_eq!(parse_folded(&ok_deep).len(), 1);
    }

    /// Arbitrary bytes must never panic the parser — a cheap
    /// deterministic fuzz (LCG, fixed seed, no wall-clock involved).
    #[test]
    fn parse_survives_arbitrary_bytes() {
        let mut state: u64 = 0x1234_5678_9abc_def0;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for round in 0..200 {
            let len = (round * 7) % 512;
            let bytes: Vec<u8> = (0..len).map(|_| next()).collect();
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse_folded(&text); // must not panic
        }
        // Structured-ish hostile inputs too.
        for text in [
            "\n\n\n",
            ";;; 1\n",
            "a; 1\n",
            "a b c\n",
            "a 18446744073709551616\n", // u64 overflow
            "a -3\n",
            "\u{0}\u{0} 1\n",
            "a\tb 2\n",
        ] {
            let _ = parse_folded(text);
        }
        assert_eq!(parse_folded("a\tb 2\n"), vec![("a\tb".to_string(), 2)]);
    }

    #[test]
    fn identical_profiles_render_byte_identical_svgs() {
        let text = "capctl.run;core.prune.run;core.score 40\n\
                    capctl.run;core.prune.run;nn.fit;tensor.matmul 60\n\
                    capctl.run 5\n";
        let a = parse_folded(text);
        let b = parse_folded(text);
        let svg_a = render_svg(&a, "profile");
        let svg_b = render_svg(&b, "profile");
        assert_eq!(svg_a.as_bytes(), svg_b.as_bytes());
        assert_eq!(
            render_diff_svg(&a, &b, "diff").as_bytes(),
            render_diff_svg(&a, &b, "diff").as_bytes()
        );
    }

    #[test]
    fn svg_is_well_formed_and_labels_frames() {
        let stacks = parse_folded("root;child_one 30\nroot;child_two 70\n");
        let svg = render_svg(&stacks, "unit & test");
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.ends_with("</svg>\n"), "{svg}");
        assert!(svg.contains("unit &amp; test"), "escaped title");
        assert!(svg.contains("child_one"), "{svg}");
        assert!(svg.contains("child_two"), "{svg}");
        assert!(svg.contains("100 µs"), "{svg}");
        // Every <g> opened is closed; rects carry the fixed 2-decimal format.
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    }

    #[test]
    fn empty_profile_renders_a_valid_placeholder() {
        let svg = render_svg(&[], "empty");
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("no time recorded"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn diff_colors_encode_share_shift() {
        let a = parse_folded("app;fast 80\napp;slow 20\n");
        let b = parse_folded("app;fast 20\napp;slow 80\n");
        let svg = render_diff_svg(&a, &b, "diff");
        // "slow" grew from 20% to 80% of run time → red family;
        // "fast" shrank → blue family.
        assert!(svg.contains("slow: 20 → 80 µs (20.0% → 80.0%)"), "{svg}");
        assert!(svg.contains("fast: 80 → 20 µs (80.0% → 20.0%)"), "{svg}");
        assert!(svg.contains("rgb(255,60,60)"), "saturated red: {svg}");
        assert!(svg.contains("rgb(60,60,255)"), "saturated blue: {svg}");
        // Unchanged root stays white.
        assert!(svg.contains("rgb(255,255,255)"), "{svg}");
    }

    #[test]
    fn frames_only_in_one_profile_stay_visible_in_the_diff() {
        let a = parse_folded("app;removed 50\n");
        let b = parse_folded("app;added 50\n");
        let svg = render_diff_svg(&a, &b, "diff");
        assert!(svg.contains("removed: 50 → 0 µs"), "{svg}");
        assert!(svg.contains("added: 0 → 50 µs"), "{svg}");
    }

    #[test]
    fn folded_string_round_trips_through_the_parser() {
        let stacks = vec![
            ("a;b".to_string(), 3_u64),
            ("a;c d".to_string(), 1), // frame with a space still parses
        ];
        let text = folded_string(&stacks);
        assert_eq!(text, "a;b 3\na;c d 1\n");
        assert_eq!(parse_folded(&text), stacks);
    }
}
