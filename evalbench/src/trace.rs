//! In-memory spans recorded around calls into each layer, written out when
//! the run ends.

use crate::POISONED;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `http.claim` or `core.finish`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Job or request the span belongs to (shared by its children).
    pub id: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any thread; disabled tracers record nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), enabled, spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the epoch for `at`.
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (usable as a parent).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect(POISONED);
        spans.push(Span { name, start: self.stamp(start), end: self.stamp(end), parent, id });
        Some(spans.len() - 1)
    }

    /// Records a parent span and its children under one id.
    pub fn record_tree(
        &self,
        parent: (&'static str, Instant, Instant),
        children: &[(&'static str, Instant, Instant)],
        id: u64,
    ) {
        let root = self.record(parent.0, parent.1, parent.2, None, id);
        for &(name, start, end) in children {
            self.record(name, start, end, root, id);
        }
    }

    /// Writes every span, with its self time, as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect(POISONED);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in spans.iter().zip(self_times(&spans)).enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start, s.end, s.id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once, and a child
/// reaching outside its parent is clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, covered)| {
            covered.sort_unstable();
            let mut union = 0;
            let mut cursor = span.start;
            for &(start, end) in covered.iter() {
                let start = start.max(cursor);
                if end > start {
                    union += end - start;
                    cursor = end;
                }
            }
            span.duration() - union
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: "t", start, end, parent, id: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // Parent 0..100 with children 10..30 and 50..60: self time 70.
        let spans = vec![span(0, 100, None), span(10, 30, Some(0)), span(50, 60, Some(0))];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children 10..40 and 30..50 cover 10..50: self time 60.
        let spans = vec![span(0, 100, None), span(10, 40, Some(0)), span(30, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child 90..130 covers only 90..100 of its parent.
        let spans = vec![span(0, 100, None), span(90, 130, Some(0))];
        assert_eq!(self_times(&spans), vec![90, 40]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![span(0, 100, None), span(0, 50, Some(0)), span(10, 20, Some(1))];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tracer.record("x", now, now, None, 1), None);
        assert!(tracer.spans.lock().unwrap().is_empty());
    }
}
