//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span is named `<layer>.<call>`; its layer is the part before the
//! dot. Spans without a dot (the per-point grouping span) belong to no
//! layer, so their self time counts as uncovered. Spans are written out
//! once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub point: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// Records spans while enabled; while disabled, [`Tracer::span`] only
/// calls through.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    point: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            point: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans that follow with a point id.
    pub fn set_point(&mut self, point: u64) {
        self.point = point;
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            point: self.point,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of the spans named `name` recorded since
    /// span index `from`.
    pub fn durations(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time per layer: each span's duration minus the durations of
    /// its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child[parent] += span.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(layer) = span.layer() {
                *out.entry(layer).or_insert(0.0) += span.secs() - child[i];
            }
        }
        out
    }

    /// All spans as JSON: name, start and end in ns since the run
    /// began, parent index and point id.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"point\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.point
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.span("point", |t| {
            t.span("network.run", |t| {
                t.span("stats.serialize", |_| {
                    std::thread::sleep(Duration::from_millis(2))
                });
                std::thread::sleep(Duration::from_millis(2));
            });
        });
        let times = t.self_times();
        assert!(times["network"] >= 0.002 && times["stats"] >= 0.002);
        assert!(times["network"] < t.durations("network.run", 0)[0]);
        assert!(!times.contains_key("point"));
        t.set_enabled(false);
        assert_eq!(t.span("cache.lookup", |_| 7), 7);
        assert_eq!(t.len(), 3);
    }
}
