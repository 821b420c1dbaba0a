//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A traced run records, for each sampled operation, one root span for
//! the operation and one child span per layer call made for it. Spans
//! stay in memory until the run ends, then go to a JSON-lines dump.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation id: the client in the top 16 bits, its op count below.
    pub op: u64,
    /// Span id, unique within the operation; 0 is the root.
    pub id: u32,
    /// Parent span id; the root is its own parent.
    pub parent: u32,
    pub name: &'static str,
    pub phase: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Builds the spans of one operation: a root opened at construction and
/// closed on drop, and children timed by [`OpTrace::time`] or
/// [`OpTrace::record`].
pub struct OpTrace<'a> {
    epoch: Instant,
    out: &'a mut Vec<Span>,
    op: u64,
    phase: &'static str,
    root: usize,
    next_id: u32,
}

impl<'a> OpTrace<'a> {
    /// Opens the root span of operation `op`, started at `start`.
    pub fn open_at(
        out: &'a mut Vec<Span>,
        epoch: Instant,
        op: u64,
        name: &'static str,
        phase: &'static str,
        start: Instant,
    ) -> Self {
        let start_ns = since(epoch, start);
        out.push(Span {
            op,
            id: 0,
            parent: 0,
            name,
            phase,
            start_ns,
            end_ns: start_ns,
        });
        let root = out.len() - 1;
        Self {
            epoch,
            out,
            op,
            phase,
            root,
            next_id: 1,
        }
    }

    /// Records a child span of the root for a call timed by the caller.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.out.push(Span {
            op: self.op,
            id: self.next_id,
            parent: 0,
            name,
            phase: self.phase,
            start_ns: since(self.epoch, start),
            end_ns: since(self.epoch, end),
        });
        self.next_id += 1;
    }

    /// Times `f` as a child span of the root and returns its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, start, Instant::now());
        value
    }
}

impl Drop for OpTrace<'_> {
    fn drop(&mut self) {
        self.out[self.root].end_ns = since(self.epoch, Instant::now());
    }
}

fn since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Per span name: how many calls, their median duration, and the self
/// time (duration minus the time covered by child spans) summed.
#[derive(Debug, Default, Clone)]
pub struct NameSummary {
    pub calls: u64,
    pub median_ns: u64,
    pub self_ns: u64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), NameSummary> {
    let mut child_ns: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.id != 0) {
        *child_ns.entry((s.op, s.parent)).or_default() += s.dur_ns();
    }
    let mut durs: BTreeMap<(&'static str, &'static str), Vec<u64>> = BTreeMap::new();
    let mut out: BTreeMap<(&'static str, &'static str), NameSummary> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&(s.op, s.id)).copied().unwrap_or(0);
        let entry = out.entry((s.phase, s.name)).or_default();
        entry.calls += 1;
        entry.self_ns += s.dur_ns().saturating_sub(covered);
        durs.entry((s.phase, s.name)).or_default().push(s.dur_ns());
    }
    for (k, mut v) in durs {
        v.sort_unstable();
        out.get_mut(&k).expect("same keys").median_ns = v[v.len() / 2];
    }
    out
}

/// Median duration of the spans named `name`, preferring the timed
/// phase and falling back to the repair probe when the timed phase has
/// fewer than `min_samples` of them.
pub fn median_ns(spans: &[Span], name: &str, min_samples: usize) -> Option<u64> {
    ["timed", "probe"].iter().find_map(|phase| {
        let mut v: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name && s.phase == *phase)
            .map(Span::dur_ns)
            .collect();
        (v.len() >= min_samples).then(|| {
            v.sort_unstable();
            v[v.len() / 2]
        })
    })
}

pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.parent, s.name, s.phase, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Median over operations holding both spans of `outer`'s duration minus
/// `inner`'s, preferring the timed phase as [`median_ns`] does.
pub fn paired_median_ns(spans: &[Span], outer: &str, inner: &str) -> f64 {
    for phase in ["timed", "probe"] {
        let mut by_op: BTreeMap<u64, (Option<u64>, Option<u64>)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.phase == phase) {
            let e = by_op.entry(s.op).or_default();
            if s.name == outer {
                e.0 = Some(s.dur_ns());
            } else if s.name == inner {
                e.1 = Some(s.dur_ns());
            }
        }
        let mut diffs: Vec<f64> = by_op
            .values()
            .filter_map(|&(o, i)| Some(o? as f64 - i? as f64))
            .collect();
        if diffs.len() >= 10 {
            diffs.sort_by(f64::total_cmp);
            return diffs[diffs.len() / 2];
        }
    }
    0.0
}
