//! Self-contained HTML dashboard over recorded series.
//!
//! [`render`] turns a sample history (the recorder's live memory ring,
//! or a `series.capts` read back from disk) into one HTML document with
//! zero external references: styles are inline and every chart is
//! inline SVG, so the output works from a `file://` export as well as
//! the live `/dash` route.
//!
//! Panels, keyed by series-name convention:
//!
//! - sparklines for `nn.fit.loss`, `nn.fit.accuracy`, `core.accuracy`,
//!   `core.flops`, and `core.remaining_filters`;
//! - one sparkline per class for `core.class_accuracy.<k>`;
//! - an iteration×class heatmap over `core.class_importance.<k>`,
//!   sampled at `core.prune.iteration` boundaries.

use crate::tsdb::Sample;

/// Sparkline canvas size.
const SPARK_W: f64 = 280.0;
const SPARK_H: f64 = 60.0;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Finite `(t, value)` points of one series.
fn series_points(samples: &[Sample], name: &str) -> Vec<(f64, f64)> {
    samples
        .iter()
        .filter_map(|s| s.value(name).map(|v| (s.t, v)))
        .filter(|(t, v)| t.is_finite() && v.is_finite())
        .collect()
}

/// Sorted list of `u32` suffixes for series named `<prefix><k>`.
fn numeric_suffixes(samples: &[Sample], prefix: &str) -> Vec<u32> {
    let mut ks: Vec<u32> = Vec::new();
    for s in samples {
        for (name, _) in &s.points {
            if let Some(rest) = name.strip_prefix(prefix) {
                if let Ok(k) = rest.parse::<u32>() {
                    if !ks.contains(&k) {
                        ks.push(k);
                    }
                }
            }
        }
    }
    ks.sort_unstable();
    ks
}

pub(crate) fn fmt(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// One inline-SVG sparkline with min/max/last labels.
fn sparkline(title: &str, points: &[(f64, f64)]) -> String {
    if points.is_empty() {
        return format!(
            "<div class=\"panel\"><h3>{}</h3><p class=\"empty\">no data</p></div>\n",
            esc(title)
        );
    }
    let (mut tmin, mut tmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut vmin, mut vmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(t, v) in points {
        tmin = tmin.min(t);
        tmax = tmax.max(t);
        vmin = vmin.min(v);
        vmax = vmax.max(v);
    }
    let tspan = (tmax - tmin).max(1e-9);
    let vspan = (vmax - vmin).max(1e-12);
    let mut poly = String::new();
    for &(t, v) in points {
        let x = (t - tmin) / tspan * (SPARK_W - 8.0) + 4.0;
        let y = SPARK_H - 4.0 - (v - vmin) / vspan * (SPARK_H - 8.0);
        poly.push_str(&format!("{x:.1},{y:.1} "));
    }
    let last = points.last().map_or(0.0, |&(_, v)| v);
    format!(
        "<div class=\"panel\"><h3>{}</h3>\
         <svg viewBox=\"0 0 {SPARK_W} {SPARK_H}\" width=\"{SPARK_W}\" height=\"{SPARK_H}\">\
         <polyline fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\" points=\"{}\"/>\
         </svg>\
         <p class=\"stats\">min {} · max {} · last {}</p></div>\n",
        esc(title),
        poly.trim_end(),
        fmt(vmin),
        fmt(vmax),
        fmt(last)
    )
}

/// The iteration×class importance heatmap: for each pruning iteration
/// (the last sample at each `core.prune.iteration` value), one cell per
/// `core.class_importance.<k>` series, shaded by value relative to the
/// grid maximum.
fn heatmap(samples: &[Sample]) -> String {
    let classes = numeric_suffixes(samples, "core.class_importance.");
    if classes.is_empty() {
        return "<div class=\"panel wide\"><h3>iteration × class importance</h3>\
                <p class=\"empty\">no attribution series recorded</p></div>\n"
            .to_string();
    }
    // Last sample per iteration value, in first-seen iteration order.
    let mut iters: Vec<(u64, &Sample)> = Vec::new();
    for s in samples {
        let Some(it) = s.value("core.prune.iteration") else {
            continue;
        };
        if !it.is_finite() || it < 0.0 {
            continue;
        }
        let it = it as u64;
        match iters.iter_mut().find(|(i, _)| *i == it) {
            Some(slot) => slot.1 = s,
            None => iters.push((it, s)),
        }
    }
    if iters.is_empty() {
        return "<div class=\"panel wide\"><h3>iteration × class importance</h3>\
                <p class=\"empty\">no iterations recorded</p></div>\n"
            .to_string();
    }
    let mut grid: Vec<Vec<Option<f64>>> = Vec::with_capacity(iters.len());
    let mut vmax = 0.0f64;
    for (_, s) in &iters {
        let row: Vec<Option<f64>> = classes
            .iter()
            .map(|k| {
                let v = s.value(&format!("core.class_importance.{k}"));
                if let Some(v) = v {
                    if v.is_finite() && v > vmax {
                        vmax = v;
                    }
                }
                v
            })
            .collect();
        grid.push(row);
    }
    let cell = 22.0;
    let label = 60.0;
    let w = label + classes.len() as f64 * cell + 4.0;
    let h = 20.0 + iters.len() as f64 * cell + 4.0;
    let mut svg = format!("<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\">");
    for (ci, k) in classes.iter().enumerate() {
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"14\" font-size=\"10\" text-anchor=\"middle\">c{k}</text>",
            label + (ci as f64 + 0.5) * cell
        ));
    }
    for (ri, ((it, _), row)) in iters.iter().zip(grid.iter()).enumerate() {
        let y = 20.0 + ri as f64 * cell;
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\">iter {it}</text>",
            label - 6.0,
            y + cell * 0.7
        ));
        for (ci, v) in row.iter().enumerate() {
            let x = label + ci as f64 * cell;
            match v {
                Some(v) if v.is_finite() => {
                    let frac = if vmax > 0.0 {
                        (v / vmax).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    svg.push_str(&format!(
                        "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                         fill=\"#dc2626\" fill-opacity=\"{frac:.3}\" stroke=\"#e5e7eb\">\
                         <title>iter {it} class {}: {}</title></rect>",
                        cell - 2.0,
                        cell - 2.0,
                        classes[ci],
                        fmt(*v)
                    ));
                }
                _ => {
                    svg.push_str(&format!(
                        "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                         fill=\"none\" stroke=\"#e5e7eb\"/>",
                        cell - 2.0,
                        cell - 2.0
                    ));
                }
            }
        }
    }
    svg.push_str("</svg>");
    format!(
        "<div class=\"panel wide\" id=\"heatmap\"><h3>iteration × class importance</h3>{svg}\
         <p class=\"stats\">cell shade = class importance of the filters \
         scored that iteration, relative to grid max {}</p></div>\n",
        fmt(vmax)
    )
}

/// Renders the dashboard HTML for `samples` (may be empty). `title`
/// names the source (a run directory or "live").
pub fn render(samples: &[Sample], title: &str) -> String {
    let mut body = String::new();
    for (label, name) in [
        ("training loss (nn.fit.loss)", "nn.fit.loss"),
        ("training accuracy (nn.fit.accuracy)", "nn.fit.accuracy"),
        ("test accuracy (core.accuracy)", "core.accuracy"),
        ("FLOPs (core.flops)", "core.flops"),
        ("remaining filters", "core.remaining_filters"),
        ("pruning iteration", "core.prune.iteration"),
    ] {
        body.push_str(&sparkline(label, &series_points(samples, name)));
    }
    let class_acc = numeric_suffixes(samples, "core.class_accuracy.");
    for k in &class_acc {
        let name = format!("core.class_accuracy.{k}");
        body.push_str(&sparkline(
            &format!("class {k} accuracy"),
            &series_points(samples, &name),
        ));
    }
    let map = heatmap(samples);
    let n = samples.len();
    let span = match (samples.first(), samples.last()) {
        (Some(a), Some(b)) => format!("t {:.1}s – {:.1}s", a.t, b.t),
        _ => "empty history".to_string(),
    };
    format!(
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>cap dashboard — {title}</title>\
         <style>\
         body{{font-family:system-ui,sans-serif;margin:1.5rem;background:#f8fafc;color:#0f172a}}\
         .grid{{display:flex;flex-wrap:wrap;gap:1rem}}\
         .panel{{background:#fff;border:1px solid #e2e8f0;border-radius:8px;padding:.75rem 1rem}}\
         .panel.wide{{flex-basis:100%}}\
         h1{{font-size:1.2rem}}h3{{margin:.1rem 0 .4rem;font-size:.85rem;font-weight:600}}\
         .stats,.empty,.meta{{color:#64748b;font-size:.75rem;margin:.3rem 0 0}}\
         </style></head><body>\
         <h1>class-aware pruning — run history ({})</h1>\
         <p class=\"meta\">{n} samples · {span}</p>\
         <div class=\"grid\">\n{body}{map}</div></body></html>\n",
        esc(title)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, t: f64, vals: &[(&str, f64)]) -> Sample {
        Sample {
            seq,
            t,
            points: vals.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn renders_empty_history() {
        let html = render(&[], "empty");
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("no data"));
        assert!(html.contains("no attribution series recorded"));
    }

    #[test]
    fn renders_sparklines_class_accuracy_and_heatmap() {
        let samples: Vec<Sample> = (0..4)
            .map(|i| {
                sample(
                    i,
                    i as f64,
                    &[
                        ("core.accuracy", 0.9 - 0.01 * i as f64),
                        ("core.class_accuracy.0", 0.95),
                        ("core.class_accuracy.1", 0.80 + 0.01 * i as f64),
                        ("core.class_importance.0", 0.1 * i as f64),
                        ("core.class_importance.1", 0.5),
                        ("core.prune.iteration", (i / 2) as f64),
                        ("nn.fit.loss", 2.0 / (i + 1) as f64),
                    ],
                )
            })
            .collect();
        let html = render(&samples, "unit <test>");
        assert!(html.contains("unit &lt;test&gt;"), "title escaped");
        assert!(html.contains("class 0 accuracy"));
        assert!(html.contains("class 1 accuracy"));
        assert!(html.contains("id=\"heatmap\""));
        assert!(html.contains("iter 0"));
        assert!(html.contains("iter 1"));
        assert!(html.contains("<polyline"));
        // Two iterations × two classes of filled cells.
        assert!(html.matches("<title>iter ").count() >= 4, "{html}");
    }
}
