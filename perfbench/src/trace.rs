//! Client-side spans around the calls into the serving stack.
//!
//! Each circuit a client submits gets a root `circuit` span with children
//! for its stages (`encrypt` or `pack`, `submit`, `outcome`, `verify`).
//! Spans stay in memory and are written out when the run ends. A
//! disabled tracer records nothing.

use crate::json::Json;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Stage name.
    pub name: &'static str,
    /// The circuit the span belongs to.
    pub circuit: u64,
    /// Start, seconds since the run's epoch.
    pub start_s: f64,
    /// End, seconds since the run's epoch.
    pub end_s: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Serializes the span with microsecond timestamps.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Int(self.id)),
            ("parent", self.parent.map_or(Json::Null, Json::Int)),
            ("name", Json::str(self.name)),
            ("circuit", Json::Int(self.circuit)),
            ("start_us", Json::Num(self.start_s * 1e6)),
            ("end_us", Json::Num(self.end_s * 1e6)),
        ])
    }
}

/// A per-client span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids start at `id_base` (distinct per client,
    /// so merged spans keep unique ids). Disabled recorders are no-ops.
    pub fn new(enabled: bool, epoch: Instant, id_base: u64) -> Self {
        Self {
            enabled,
            epoch,
            id_base,
            spans: Vec::new(),
        }
    }

    /// Opens a span; returns its id (0 when disabled).
    pub fn open(&mut self, name: &'static str, circuit: u64, parent: Option<u64>) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.id_base + self.spans.len() as u64;
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent,
            name,
            circuit,
            start_s: now,
            end_s: now,
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_secs_f64();
        let span = &mut self.spans[(id - self.id_base) as usize];
        span.end_s = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        circuit: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, circuit, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (children of one span never overlap here, since a
/// client runs its stages one after another).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    spans
        .iter()
        .map(|s| {
            let covered: f64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| c.end_s.min(s.end_s) - c.start_s.max(s.start_s))
                .filter(|d| *d > 0.0)
                .sum();
            (s.name, s.duration_s() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let v = t.span("submit", 1, None, || 5);
        assert_eq!(v, 5);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn children_point_at_their_parent_and_self_time_excludes_them() {
        let mut t = Tracer::new(true, Instant::now(), 100);
        let root = t.open("circuit", 7, None);
        t.span("submit", 7, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 100);
        assert_eq!(spans[1].parent, Some(100));
        assert!(spans.iter().all(|s| s.circuit == 7));
        let selfs = self_times(&spans);
        assert!(selfs[0].1 >= 0.0);
        assert!(selfs[0].1 < spans[0].duration_s());
        assert_eq!(selfs[1].1, spans[1].duration_s());
    }
}
