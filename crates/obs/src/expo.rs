//! Prometheus text-format exposition of the metrics [`Registry`].
//!
//! [`render`] turns a registry snapshot into the exposition format
//! scraped from the `/metrics` endpoint of [`crate::serve`]. The output
//! is deterministic: metrics are emitted in sorted-name order and every
//! float uses one fixed format ([`fmt_value`]), so two scrapes of the
//! same registry state are byte-identical and golden-file tests diff
//! cleanly.
//!
//! Mapping from registry metrics to Prometheus families:
//!
//! | Registry | Exposition |
//! |---|---|
//! | `Counter` | `counter`, integer value |
//! | `Gauge` | `gauge`, fixed 6-decimal value |
//! | `Histogram` | `summary`: `{quantile="0.5"}`, `{quantile="0.95"}`, `_sum`, `_count` |
//!
//! Registry names are dot-paths (`par.worker.0.busy_seconds`); the
//! exposition sanitises every character outside `[a-zA-Z0-9_:]` to `_`
//! and prefixes `cap_`, so the example becomes
//! `cap_par_worker_0_busy_seconds`.

use crate::metrics::{Metric, Registry};

/// Formats one sample value the Prometheus way, with a fixed number of
/// decimals so repeated scrapes are textually stable. Non-finite values
/// use the exposition spellings `NaN` / `+Inf` / `-Inf`.
pub fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:.6}")
    }
}

/// Sanitises a registry dot-path into a Prometheus metric name:
/// `cap_` prefix, every character outside `[a-zA-Z0-9_:]` replaced by
/// `_`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("cap_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders `registry` in Prometheus text exposition format (version
/// 0.0.4). Families appear in sorted sanitised-name order, each with a
/// `# TYPE` comment line.
pub fn render(registry: &Registry) -> String {
    let mut rows: Vec<(String, Metric)> = registry
        .snapshot()
        .into_iter()
        .map(|(name, metric)| (sanitize_name(&name), metric))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::with_capacity(64 + rows.len() * 64);
    out.push_str(&format!(
        "# TYPE cap_obs_uptime_seconds gauge\ncap_obs_uptime_seconds {}\n",
        fmt_value(crate::uptime_secs())
    ));
    for (name, metric) in rows {
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {c}\n"));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", fmt_value(g)));
            }
            Metric::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} summary\n"));
                out.push_str(&format!(
                    "{name}{{quantile=\"0.5\"}} {}\n",
                    fmt_value(h.p50())
                ));
                out.push_str(&format!(
                    "{name}{{quantile=\"0.95\"}} {}\n",
                    fmt_value(h.p95())
                ));
                out.push_str(&format!("{name}_sum {}\n", fmt_value(h.sum())));
                out.push_str(&format!("{name}_count {}\n", h.count()));
            }
        }
    }
    out
}

/// Validates one exposition body against the text-format line grammar:
/// every line is a `# TYPE`/`# HELP` comment or a sample
/// `name[{labels}] value`. Returns the first offending line.
///
/// This is the checker the integration tests scrape `/metrics` through;
/// it accepts exactly what [`render`] can produce (plus `# HELP`, for
/// forward compatibility).
///
/// # Errors
///
/// Returns `Err(line)` describing the first line that does not parse.
pub fn validate(body: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    for (i, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let ok = match keyword {
                "TYPE" => {
                    valid_name(name)
                        && matches!(
                            parts.next(),
                            Some("counter" | "gauge" | "summary" | "histogram" | "untyped")
                        )
                }
                "HELP" => valid_name(name),
                _ => false,
            };
            if !ok {
                return Err(format!("line {}: bad comment {line:?}", i + 1));
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return Err(format!("line {}: no value separator in {line:?}", i + 1)),
        };
        let bare = match name_part.split_once('{') {
            Some((bare, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {}: unterminated labels in {line:?}", i + 1));
                }
                bare
            }
            None => name_part,
        };
        if !valid_name(bare) {
            return Err(format!("line {}: bad metric name in {line:?}", i + 1));
        }
        let numeric =
            matches!(value_part, "NaN" | "+Inf" | "-Inf") || value_part.parse::<f64>().is_ok();
        if !numeric {
            return Err(format!("line {}: bad value in {line:?}", i + 1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_dot_paths() {
        assert_eq!(
            sanitize_name("par.worker.0.busy_seconds"),
            "cap_par_worker_0_busy_seconds"
        );
        assert_eq!(sanitize_name("span.fit/epoch"), "cap_span_fit_epoch");
    }

    #[test]
    fn fixed_float_format_is_stable() {
        assert_eq!(fmt_value(1.5), "1.500000");
        assert_eq!(fmt_value(0.0), "0.000000");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn renders_all_metric_kinds_in_sorted_order_and_validates() {
        let r = Registry::new();
        r.gauge_set("zzz.last", 2.5);
        r.counter_add("aaa.first", 3);
        r.histogram_record("mmm.mid", 10.0);
        r.histogram_record("mmm.mid", 20.0);
        let body = render(&r);
        validate(&body).unwrap();
        // Families render in sorted-name order after the leading uptime
        // gauge (within a summary family, quantiles/_sum/_count keep
        // the conventional exposition order).
        let families: Vec<&str> = body
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        assert_eq!(families[0], "cap_obs_uptime_seconds");
        let mut sorted = families[1..].to_vec();
        sorted.sort();
        assert_eq!(families[1..], sorted[..], "{body}");
        assert!(body.contains("# TYPE cap_aaa_first counter\ncap_aaa_first 3\n"));
        assert!(body.contains("# TYPE cap_zzz_last gauge\ncap_zzz_last 2.500000\n"));
        assert!(body.contains("cap_mmm_mid_sum 30.000000\n"));
        assert!(body.contains("cap_mmm_mid_count 2\n"));
        assert!(body.contains("cap_mmm_mid{quantile=\"0.5\"}"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate("ok_metric 1.0\n").is_ok());
        assert!(validate("bad metric name 1.0\n").is_err());
        assert!(validate("no_value\n").is_err());
        assert!(validate("metric not-a-number\n").is_err());
        assert!(validate("# TYPE x bogus\n").is_err());
        assert!(validate("m{quantile=\"0.5\"} 0.25\n").is_ok());
    }
}
