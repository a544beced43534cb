//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public functions; nothing inside the program is
//! instrumented. Each span has a name, start and end (µs since the run
//! began), the id of its parent span and an optional candidate
//! iteration index or served job id. The spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use yoso_trace::Event;

/// Which candidate or job a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    None,
    /// Search iteration index of a candidate.
    Iter(u64),
    /// Served job id.
    Job(u64),
}

#[derive(Debug, Clone)]
struct Rec {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    key: Key,
}

/// Span recorder; a disabled tracer runs every timed closure untouched.
pub struct Tracer {
    t0: Instant,
    recs: Option<Mutex<Vec<Rec>>>,
}

/// Id of the implicit root: spans with this parent are top-level.
pub const ROOT: u32 = 0;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            recs: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// to use as the parent of nested spans.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u32,
        key: Key,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let Some(recs) = &self.recs else {
            return f(ROOT);
        };
        let id = {
            let mut v = recs.lock().expect("span list lock poisoned");
            let id = u32::try_from(v.len() + 1).expect("fewer than 2^32 spans");
            v.push(Rec {
                id,
                parent,
                name,
                start_ns: 0,
                end_ns: 0,
                key,
            });
            id
        };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let mut v = recs.lock().expect("span list lock poisoned");
        let rec = &mut v[id as usize - 1];
        rec.start_ns = start_ns;
        rec.end_ns = end_ns;
        out
    }

    /// Opens a span that [`close`](Self::close) ends; returns its id.
    pub fn open(&self, name: &'static str, parent: u32, key: Key) -> u32 {
        let now = Instant::now();
        self.record(name, parent, key, now, now)
    }

    pub fn close(&self, id: u32) {
        let Some(recs) = &self.recs else { return };
        let end_ns = self.now_ns();
        recs.lock().expect("span list lock poisoned")[id as usize - 1].end_ns = end_ns;
    }

    /// Records a span whose interval was measured by the caller and
    /// returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        key: Key,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let Some(recs) = &self.recs else { return ROOT };
        let ns = |t: Instant| u64::try_from(t.duration_since(self.t0).as_nanos()).unwrap_or(0);
        let mut v = recs.lock().expect("span list lock poisoned");
        let id = u32::try_from(v.len() + 1).expect("fewer than 2^32 spans");
        v.push(Rec {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            key,
        });
        id
    }

    fn snapshot(&self) -> Vec<Rec> {
        self.recs
            .as_ref()
            .map(|m| m.lock().expect("span list lock poisoned").clone())
            .unwrap_or_default()
    }

    /// Self time per span name in ms: each span's duration minus the
    /// part of its interval that its children cover (children running
    /// in parallel are merged, so overlap is not subtracted twice).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let recs = self.snapshot();
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for r in &recs {
            children
                .entry(r.parent)
                .or_default()
                .push((r.start_ns, r.end_ns));
        }
        let mut out = BTreeMap::new();
        for r in &recs {
            let covered = children
                .get_mut(&r.id)
                .map_or(0, |c| covered_ns(c, r.start_ns, r.end_ns));
            let self_ns = (r.end_ns - r.start_ns).saturating_sub(covered);
            *out.entry(r.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Summed duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.snapshot()
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one JSONL line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let recs = self.snapshot();
        let mut text = String::new();
        for r in &recs {
            let mut e = Event::new("span")
                .with_str("name", r.name)
                .with_u64("id", u64::from(r.id))
                .with_u64("parent", u64::from(r.parent))
                .with_f64("start_us", r.start_ns as f64 / 1e3)
                .with_f64("end_us", r.end_ns as f64 / 1e3);
            match r.key {
                Key::None => {}
                Key::Iter(i) => e = e.with_u64("iter", i),
                Key::Job(j) => e = e.with_u64("job", j),
            }
            text.push_str(&e.to_json());
            text.push('\n');
        }
        std::fs::write(path, text)?;
        Ok(recs.len())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        let mut v = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(covered_ns(&mut v, 0, 45), 20 + 5);
    }
}
