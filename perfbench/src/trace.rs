//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start and end on one monotonic clock, its
//! parent span and the op it belongs to. Spans stay in memory while the
//! benchmark runs and are written out once at the end. A layer's self
//! time is its span's duration minus the durations of its direct
//! children; children run on the parent's thread, one after another,
//! so they never overlap each other.

use std::time::Instant;

use serde::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Op id, shared by every span of one op.
    pub op: u64,
    /// Nanoseconds since the trace's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. When off, [`Tracer::span`] only calls its closure.
#[derive(Debug)]
pub struct Tracer {
    /// Record spans.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. A span opened with no
    /// enclosing span starts a new op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's spans (one per client thread), keeping
    /// span and op ids unique.
    pub fn absorb(&mut self, other: Tracer) {
        let (base, op_base) = (self.spans.len(), self.next_op);
        let shift = other.epoch.duration_since(self.epoch).as_nanos() as u64;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.op += op_base;
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
        self.next_op += other.next_op;
    }
}

/// Self time of every span, in nanoseconds: duration minus the direct
/// children's durations. Negative when children do not fit inside
/// their parent (a recording bug the tests rule out).
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Mean self time in milliseconds of the spans named `name` (0 when
/// there are none).
pub fn mean_self_ms(spans: &[Span], selfs: &[i64], name: &str) -> f64 {
    let (mut sum, mut n) = (0i64, 0u32);
    for (s, &t) in spans.iter().zip(selfs) {
        if s.name == name {
            sum += t;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1e6
    }
}

/// The trace document written at the end of a traced run.
pub fn to_json(spans: &[Span], header: Vec<(String, Json)>) -> Json {
    let selfs = self_times(spans);
    let rows = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, &own))| {
            Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op".into(), Json::Num(s.op as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur_us".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                ("self_us".into(), Json::Num(own as f64 / 1e3)),
            ])
        })
        .collect();
    let mut doc = header;
    doc.push(("spans".into(), Json::Arr(rows)));
    Json::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        assert_eq!(tr.span("op", |tr| tr.span("engine", |_| 3)), 3);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn children_share_the_op_and_absorb_keeps_ids_unique() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("op", |tr| tr.span("engine", |_| ()));
        let mut b = Tracer::new(true, Instant::now());
        b.span("op", |_| ());
        a.absorb(b);
        let s = a.spans();
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), None));
    }
}
