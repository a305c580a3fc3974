//! Hierarchical span aggregation: per-path span statistics.
//!
//! The RAII spans of [`crate::Obs`] already measure durations; this module
//! adds *attribution*. Each enabled handle keeps a stack of the spans
//! currently open on it, and every closing span records its full path —
//! the open ancestors joined with `;`, e.g. `enrol_mix;wave;manager_step`
//! — into a [`ProfileStore`] of per-path counts and inclusive time.
//! Pre-measured durations ([`crate::Obs::record_duration`]) attribute as
//! leaves under whatever spans are open, so the agreement's
//! logically-clocked stage timings land in the right subtree for free.
//!
//! [`collapsed`] exports the store as flamegraph-compatible
//! collapsed-stack text, one `path weight` line per path, weight =
//! *exclusive* time in integer microseconds (the format
//! `inferno`/`flamegraph.pl` consume).
//!
//! Everything here runs only on the *enabled* obs path; a disabled handle
//! never touches the span stack or the store, preserving the
//! one-pointer-test disabled cost.

use std::cell::RefCell;
use std::collections::HashMap;

/// Aggregated samples for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathStat {
    /// How many spans closed on this path.
    pub count: u64,
    /// Total inclusive seconds across those spans.
    pub total_s: f64,
}

/// Accumulator of per-path span statistics.
#[derive(Debug, Default)]
pub struct ProfileStore {
    paths: RefCell<HashMap<String, PathStat>>,
}

impl ProfileStore {
    /// An empty store.
    pub fn new() -> ProfileStore {
        ProfileStore::default()
    }

    /// Add one closed span's inclusive time under `path`.
    pub fn record(&self, path: &str, seconds: f64) {
        let mut paths = self.paths.borrow_mut();
        match paths.get_mut(path) {
            Some(stat) => {
                stat.count += 1;
                stat.total_s += seconds;
            }
            None => {
                paths.insert(path.to_string(), PathStat { count: 1, total_s: seconds });
            }
        }
    }

    /// Copy out every `(path, stat)`, sorted by path.
    pub fn snapshot(&self) -> Vec<(String, PathStat)> {
        let mut out: Vec<(String, PathStat)> =
            self.paths.borrow().iter().map(|(p, s)| (p.clone(), *s)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.paths.borrow().is_empty()
    }
}

/// Render a snapshot as flamegraph collapsed-stack text: one
/// `path weight` line per path (sorted), weight = exclusive time in
/// integer microseconds.
pub fn collapsed(snapshot: &[(String, PathStat)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (path, stat) in snapshot {
        // Exclusive = own total minus direct children's totals.
        let child_prefix = format!("{path};");
        let children_total: f64 = snapshot
            .iter()
            .filter(|(p, _)| {
                p.strip_prefix(&child_prefix).is_some_and(|rest| !rest.contains(';'))
            })
            .map(|(_, s)| s.total_s)
            .sum();
        let exclusive_us = ((stat.total_s - children_total).max(0.0) * 1e6).round() as u64;
        let _ = writeln!(out, "{path} {exclusive_us}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(paths: &[(&str, u64, f64)]) -> Vec<(String, PathStat)> {
        let store = ProfileStore::new();
        for (path, count, total) in paths {
            for _ in 0..*count {
                store.record(path, total / *count as f64);
            }
        }
        store.snapshot()
    }

    #[test]
    fn tree_attributes_inclusive_and_exclusive_time() {
        let snap = store_with(&[
            ("root", 1, 1.0),
            ("root;child_a", 2, 0.4),
            ("root;child_a;leaf", 2, 0.1),
            ("root;child_b", 1, 0.3),
        ]);
        // The store keeps each path's count and inclusive time ...
        let stat = |path: &str| snap.iter().find(|(p, _)| p == path).expect(path).1;
        assert_eq!(stat("root").count, 1);
        assert!((stat("root").total_s - 1.0).abs() < 1e-9);
        assert_eq!(stat("root;child_a").count, 2);
        assert!((stat("root;child_a").total_s - 0.4).abs() < 1e-9);
        // ... and the export weighs each by its exclusive time.
        assert_eq!(
            collapsed(&snap).lines().collect::<Vec<_>>(),
            vec![
                "root 300000",              // 1.0 - (0.4 + 0.3)
                "root;child_a 300000",      // 0.4 - 0.1
                "root;child_a;leaf 100000",
                "root;child_b 300000",
            ]
        );
    }

    #[test]
    fn interior_node_without_direct_samples_sums_children() {
        // "outer" never closed directly (e.g. only pre-measured leaves
        // were recorded under it): it gets no line of its own, so a
        // flamegraph draws it as exactly the sum of its children.
        let snap = store_with(&[("outer;leaf_a", 1, 0.2), ("outer;leaf_b", 1, 0.3)]);
        assert_eq!(
            collapsed(&snap).lines().collect::<Vec<_>>(),
            vec!["outer;leaf_a 200000", "outer;leaf_b 300000"]
        );
    }

    #[test]
    fn collapsed_emits_exclusive_microsecond_weights() {
        let snap = store_with(&[("root", 1, 0.001), ("root;leaf", 1, 0.0004)]);
        let text = collapsed(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["root 600", "root;leaf 400"]);
    }

    #[test]
    fn deep_grandchildren_do_not_double_subtract() {
        // Only *direct* children subtract from a path's exclusive time.
        let snap = store_with(&[("a", 1, 1.0), ("a;b", 1, 0.6), ("a;b;c", 1, 0.2)]);
        let text = collapsed(&snap);
        assert_eq!(text.lines().next(), Some("a 400000"), "1.0 - 0.6 only");
    }
}
