//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! never inside the program. Each span has a name (`<layer>.<what>`), the
//! sequence number of the query or request it belongs to, a start and an
//! end relative to the run's origin, and the span that was open when it
//! began. Durations are kept per name for exact quantiles; the span list
//! itself is capped so a long serving run cannot exhaust memory, and is
//! written out when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the written trace; later spans still count in the
/// per-name statistics.
const STORED_SPANS: usize = 100_000;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Index of the enclosing span in the stored list, if it was stored.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals for every span of one name.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Every span's duration, in record order.
    pub samples: Vec<u64>,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    slot: Option<u32>,
}

/// A span recorder for one thread.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    names: BTreeMap<&'static str, NameStats>,
}

impl Trace {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            names: BTreeMap::new(),
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; it nests under the span open on this recorder.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        self.begin_at(name, id, Instant::now());
    }

    fn begin_at(&mut self, name: &'static str, id: u64, start: Instant) {
        let slot = (self.spans.len() < STORED_SPANS).then(|| {
            let parent = self.stack.last().and_then(|o| o.slot);
            self.spans.push(Span {
                name,
                id,
                parent,
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            slot,
        });
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        self.end_at(Instant::now())
    }

    fn end_at(&mut self, end: Instant) -> u64 {
        let open = self.stack.pop().expect("end() without an open span");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = self.ns_since_origin(end);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let stats = self.names.entry(open.name).or_default();
        stats.total_ns += dur;
        stats.self_ns += dur.saturating_sub(open.child_ns);
        stats.samples.push(dur);
        dur
    }

    /// Records a leaf span that was timed outside the recorder.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        self.begin_at(name, id, start);
        self.end_at(end);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin(name, id);
        let out = f(self);
        self.end();
        out
    }

    /// Folds another thread's recorder into this one.
    pub fn absorb(&mut self, other: Trace) {
        assert!(
            other.stack.is_empty(),
            "absorbing a recorder with open spans"
        );
        let offset = self.spans.len() as u32;
        let shift = other.origin.duration_since(self.origin).as_nanos() as u64;
        for mut s in other.spans {
            if self.spans.len() >= STORED_SPANS {
                break;
            }
            s.parent = s.parent.map(|p| p + offset);
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
        for (name, st) in other.names {
            let mine = self.names.entry(name).or_default();
            mine.total_ns += st.total_ns;
            mine.self_ns += st.self_ns;
            mine.samples.extend(st.samples);
        }
    }

    /// Statistics of every span named `name` (empty when none ran).
    pub fn stats(&self, name: &str) -> &NameStats {
        static NONE: NameStats = NameStats {
            total_ns: 0,
            self_ns: 0,
            samples: Vec::new(),
        };
        self.names.get(name).unwrap_or(&NONE)
    }

    /// Number of spans recorded, stored or not.
    pub fn span_count(&self) -> u64 {
        self.names.values().map(|s| s.samples.len() as u64).sum()
    }

    /// Self time per layer in seconds: the layer is the span name up to
    /// its first '.'.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, st) in &self.names {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0.0) += st.self_ns as f64 / 1e9;
        }
        out
    }

    /// The stored spans as JSON: one `[name, id, parent, start_ns,
    /// end_ns]` array per span, parent `-1` for a root.
    pub fn spans_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or(-1, i64::from);
            let _ = write!(
                s,
                "[\"{}\",{},{},{},{}]",
                sp.name, sp.id, parent, sp.start_ns, sp.end_ns
            );
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::new(Instant::now());
        t.span("loop.query", 7, |t| {
            t.span("sthole.merge", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = t.stats("loop.query");
        let inner = t.stats("sthole.merge");
        assert_eq!(outer.samples.len(), 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].id, 7);
        assert!(t.layer_self_s()["sthole"] >= 0.002);
    }
}
