//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files (the program carries
//! none yet), kept in memory, and written out once when the traced run
//! ends. A span's self time is its duration minus the part its children
//! cover.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// The round the span belongs to — the identifier its siblings share.
    pub round: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1024),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Time `f` as a child of the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        round: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, round);
        let out = f();
        self.end(id);
        out
    }

    /// [`Trace::span`] that also returns the span's duration in ms.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        round: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, round);
        let out = f();
        self.end(id);
        (out, self.spans[id].ms())
    }

    /// Open a span that other spans will nest under until [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, round: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total self time per span name, in ms: duration minus children.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += t;
        }
        by_name
    }

    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                    "parent": s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                    "round": s.round.map_or(Value::Null, |r| Value::from(r as u64)),
                })
            })
            .collect();
        Value::Array(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::new();
        let outer = t.begin("outer", Some(0));
        t.span("inner", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", Some(0), || ());
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[0].parent, None);
        let own = t.self_times_ms();
        let inner: f64 = t.durations_ms("inner").iter().sum();
        assert!(inner >= 2.0);
        assert!((own["outer"] - (t.spans[outer].ms() - inner)).abs() < 1e-9);
        assert!((own["inner"] - inner).abs() < 1e-9);
    }
}
