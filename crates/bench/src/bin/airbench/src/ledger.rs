//! Bench-side spans around the calls into each layer, and the per-layer
//! ledger built from them.
//!
//! A span has a name (`<crate>.<what>`), a start, an end, the span that
//! caused it, and a width: the number of threads it stands for (2 for a
//! fleet run on two workers). A layer's self time is `duration × width`
//! minus the time of its children, so the executor's self time is the
//! time its workers spent waiting rather than working. Work too fine to
//! keep a span for (single ticks) is added as an aggregate: a total under
//! a parent span name. Every traced operation has a `bench.op` root span,
//! whose self time is the benchmark's own glue — the unattributed share.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The root span name of one traced operation.
pub const ROOT: &str = "bench.op";

/// One recorded interval (nanoseconds since the ledger's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    pub width: u32,
}

impl Span {
    pub fn new(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Self {
        Self {
            name,
            parent,
            start,
            end,
            width: 1,
        }
    }

    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 * 1e-9
    }
}

/// Nanoseconds from `epoch` to now.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

pub struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
    /// `(name, parent name, total ns)` of work recorded without spans.
    aggregates: Vec<(&'static str, &'static str, u64)>,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now(&self) -> u64 {
        ns_since(self.epoch)
    }

    /// Opens a span; [`Ledger::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(Span::new(name, parent, now, now))
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name` under `parent`; returns its
    /// result and the span's seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        (out, self.spans[id].secs())
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn set_width(&mut self, id: usize, width: u32) {
        self.spans[id].width = width;
    }

    /// Adds `ns` of work named `name`, done inside spans named `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: &'static str, ns: u64) {
        self.aggregates.push((name, parent, ns));
    }

    /// Durations (s) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Seconds of `child`-named spans under each `parent`-named span, in
    /// the parents' recording order.
    pub fn child_secs(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut per_parent: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == parent {
                per_parent.entry(i).or_default();
            }
        }
        for s in &self.spans {
            if let Some(p) = s.parent.filter(|&p| self.spans[p].name == parent) {
                if s.name == child {
                    *per_parent.entry(p).or_default() += s.secs();
                }
            }
        }
        per_parent.into_values().collect()
    }

    /// Self time (s) of every span name, in name order.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.secs() * f64::from(s.width);
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name).or_default() -= s.secs();
            }
        }
        for &(name, parent, ns) in &self.aggregates {
            *out.entry(name).or_default() += ns as f64 * 1e-9;
            *out.entry(parent).or_default() -= ns as f64 * 1e-9;
        }
        out
    }

    /// Share of traced wall time no layer span covers: the root spans'
    /// self time over their duration.
    pub fn unattributed_share(&self) -> f64 {
        let total: f64 = self.durations(ROOT).iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        self.self_times().get(ROOT).copied().unwrap_or(0.0) / total
    }

    /// Writes one line per span (`id parent name start_ns end_ns width`)
    /// and per aggregate (`agg name parent total_ns`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i} {parent} {} {} {} {}",
                s.name, s.start, s.end, s.width
            );
        }
        for (name, parent, ns) in &self.aggregates {
            let _ = writeln!(out, "agg {name} {parent} {ns}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_counts_width() {
        let mut l = Ledger::new();
        let root = l.push(Span::new(ROOT, None, 0, 1000));
        let run = l.push(Span::new("fleet.run", Some(root), 100, 900));
        l.set_width(run, 2);
        l.push(Span::new("fleet.tick", Some(run), 100, 800));
        l.push(Span::new("fleet.tick", Some(run), 100, 500));
        l.aggregate("pal.plain", "fleet.tick", 600);
        let t = l.self_times();
        let ns = |name: &str| (t[name] * 1e9).round() as i64;
        assert_eq!(ns(ROOT), 200);
        assert_eq!(ns("fleet.run"), 2 * 800 - 700 - 400);
        assert_eq!(ns("fleet.tick"), 1100 - 600);
        assert_eq!(ns("pal.plain"), 600);
        assert!((l.unattributed_share() - 0.2).abs() < 1e-9);
        assert_eq!(l.child_secs(ROOT, "fleet.run").len(), 1);
    }
}
