//! RAII span timers with nesting, rolled up into the metrics registry.

use crate::metrics::Metric;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A scoped timer created by [`crate::span!`]; records its elapsed time
/// on drop under the full nested path (`outer/inner`).
///
/// When observability is disabled the guard is inert: construction is
/// one relaxed atomic load and drop is a `None` check — no allocation,
/// no clock read.
#[must_use = "a span guard times the scope it lives in; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(Instant, &'static str)>,
}

impl SpanGuard {
    /// Starts a span named `name` (convention: `crate.component.op`).
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { active: None };
        }
        STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            active: Some((Instant::now(), name)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((start, name)) = self.active.take() else {
            return;
        };
        let elapsed_ns = start.elapsed().as_nanos() as f64;
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            // Defensive: only pop our own frame even if a nested guard
            // leaked past its scope.
            if stack.last() == Some(&name) {
                stack.pop();
            }
            path
        });
        crate::registry().histogram_record(&format!("span.{path}"), elapsed_ns);
        if crate::detail() {
            crate::emit(
                crate::Event::new("span")
                    .str("path", path)
                    .f64("ns", elapsed_ns),
            );
        }
    }
}

/// Folds every `span.*` histogram in the registry into flamegraph
/// stacks: one `(frame;frame, µs)` pair per span path, weighing the
/// path's total time minus its direct children's totals (its *self*
/// time). The input of [`crate::flame`] and the content of a run
/// directory's `profile.folded`.
///
/// A span still open has no total yet while its children already
/// have theirs; its weight clamps at zero rather than going negative.
/// Paths that round to zero µs are left out.
pub fn span_stacks() -> Vec<(String, u64)> {
    let snapshot = crate::registry().snapshot();
    let totals: Vec<(&str, f64)> = snapshot
        .iter()
        .filter_map(|(name, metric)| match metric {
            Metric::Histogram(h) => name.strip_prefix("span.").map(|p| (p, h.sum())),
            _ => None,
        })
        .collect();
    let mut children_ns: BTreeMap<&str, f64> = BTreeMap::new();
    for &(path, ns) in &totals {
        if let Some((parent, _)) = path.rsplit_once('/') {
            *children_ns.entry(parent).or_insert(0.0) += ns;
        }
    }
    totals
        .into_iter()
        .filter_map(|(path, ns)| {
            let self_ns = (ns - children_ns.get(path).copied().unwrap_or(0.0)).max(0.0);
            let us = (self_ns / 1e3).round() as u64;
            (us > 0).then(|| (path.replace('/', ";"), us))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the process-global enable flag and registry, so
    // they serialise on a lock (the rest of the obs unit tests do not
    // touch global state).
    fn with_global_obs(f: impl FnOnce()) {
        let _guard = crate::test_lock();
        crate::reset();
        crate::enable();
        f();
        crate::disable();
        crate::reset();
    }

    #[test]
    fn nested_spans_record_full_paths() {
        with_global_obs(|| {
            {
                let _outer = SpanGuard::enter("outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = SpanGuard::enter("inner");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                {
                    let _inner = SpanGuard::enter("inner");
                }
            }
            let snap = crate::registry().snapshot();
            let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
            assert!(names.contains(&"span.outer"), "{names:?}");
            assert!(names.contains(&"span.outer/inner"), "{names:?}");
            let (_, inner) = snap.iter().find(|(n, _)| n == "span.outer/inner").unwrap();
            let (_, outer) = snap.iter().find(|(n, _)| n == "span.outer").unwrap();
            match (inner, outer) {
                (Metric::Histogram(i), Metric::Histogram(o)) => {
                    assert_eq!(i.count(), 2);
                    assert_eq!(o.count(), 1);
                    assert!(
                        o.sum() > i.sum(),
                        "outer must include inner time: {} vs {}",
                        o.sum(),
                        i.sum()
                    );
                }
                other => panic!("unexpected metrics {other:?}"),
            }
        });
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::disable();
        {
            let _span = SpanGuard::enter("ghost");
        }
        assert!(crate::registry().snapshot().is_empty());
    }

    #[test]
    fn span_paths_are_per_thread() {
        with_global_obs(|| {
            let t = std::thread::spawn(|| {
                let _a = SpanGuard::enter("worker");
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
            {
                let _m = SpanGuard::enter("main_side");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            t.join().unwrap();
            let snap = crate::registry().snapshot();
            let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
            // Neither thread nests inside the other.
            assert!(names.contains(&"span.worker"), "{names:?}");
            assert!(names.contains(&"span.main_side"), "{names:?}");
            assert!(!names.iter().any(|n| n.contains('/')), "{names:?}");
        });
    }

    fn histogram_sum(name: &str) -> f64 {
        match crate::registry()
            .snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
        {
            Some((_, Metric::Histogram(h))) => h.sum(),
            other => panic!("no histogram {name}: {other:?}"),
        }
    }

    #[test]
    fn span_tree_folds_into_self_time_stacks() {
        with_global_obs(|| {
            let t = std::thread::spawn(|| {
                let _w = SpanGuard::enter("worker");
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
            {
                let _outer = SpanGuard::enter("outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                for _ in 0..2 {
                    let _inner = SpanGuard::enter("inner");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            t.join().unwrap();
            let stacks = span_stacks();
            let names: Vec<&str> = stacks.iter().map(|(s, _)| s.as_str()).collect();
            assert_eq!(names, vec!["outer", "outer;inner", "worker"], "{stacks:?}");
            let weight = |stack: &str| stacks.iter().find(|(s, _)| s == stack).unwrap().1;
            // Self time plus the child's total recovers the parent's
            // total; each line rounds to the µs once.
            let outer_us = histogram_sum("span.outer") / 1e3;
            let folded_us = (weight("outer") + weight("outer;inner")) as f64;
            assert!(
                (folded_us - outer_us).abs() <= 1.0,
                "{folded_us} vs {outer_us}"
            );
            assert!(weight("outer;inner") >= 2_000, "{stacks:?}");
            let text = crate::flame::folded_string(&stacks);
            assert_eq!(crate::flame::parse_folded(&text), stacks);
        });
    }

    #[test]
    fn open_parent_weighs_nothing_while_its_children_count() {
        with_global_obs(|| {
            // The registry after a 1 ms instance of `run` closed, while a
            // second, still open instance already holds a closed 3 ms
            // child: the parent's total is below its child's.
            crate::registry().histogram_record("span.run", 1e6);
            crate::registry().histogram_record("span.run/child", 3e6);
            let stacks = span_stacks();
            assert!(
                stacks.iter().all(|(s, _)| s != "run"),
                "clamped at zero, so omitted: {stacks:?}"
            );
            let child = stacks.iter().find(|(s, _)| s == "run;child").unwrap().1;
            assert_eq!(child, 3_000, "{stacks:?}");
        });
    }
}
