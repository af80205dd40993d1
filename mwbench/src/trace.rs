//! In-memory spans recorded from outside the program, around the calls
//! into each layer, and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Name of the root span of every reading, batch or query.
pub const REQUEST: &str = "request";

/// One timed interval. Times are nanoseconds on the run's single clock;
/// `parent` indexes the span that caused this one (replayed layer calls
/// have none); spans of one operation share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Records a span and returns its index, for use as a `parent`.
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Hangs span `child` under `parent`, for spans whose cause is only
    /// known after they ended.
    pub fn set_parent(&mut self, child: usize, parent: u32) {
        self.spans[child].parent = Some(parent);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON array to `dir/trace-<workload>.json`.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}{}",
                s.name, s.start_ns, s.end_ns, parent, s.request, comma
            )?;
        }
        writeln!(out, "]")?;
        out.flush()?;
        Ok(path)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover (children clipped to the parent, overlaps among
/// children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// Share of the time inside `request` spans that no child span covers.
pub fn unattributed_ratio(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.name == REQUEST {
            total += s.end_ns - s.start_ns;
            uncovered += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        uncovered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut t = Tracer::new();
        let root = t.span(REQUEST, 0, 100, None, 1);
        t.span("a", 10, 40, Some(root), 1);
        // Overlaps `a` by 10 ns: the union covers 10..60.
        let b = t.span("b", 30, 60, Some(root), 1);
        // A grandchild takes from `b`, not from the root.
        t.span("c", 35, 45, Some(b), 1);
        // Sticks out past the root: clipped to 90..100.
        t.span("d", 90, 120, Some(root), 1);
        // A replayed call has no parent and takes from nobody.
        t.span("replay.x", 0, 500, None, 1);
        let own = self_times(t.spans());
        assert_eq!(own, vec![100 - 50 - 10, 30, 20, 10, 30, 500]);
        let by_name = self_time_by_name(t.spans());
        assert_eq!(by_name[REQUEST], 40);
        assert_eq!(by_name["b"], 20);
        assert!((unattributed_ratio(t.spans()) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn contiguous_children_leave_nothing_unattributed() {
        let mut t = Tracer::new();
        let root = t.span(REQUEST, 5, 50, None, 7);
        t.span("gen.wait", 5, 20, Some(root), 7);
        t.span("core.ingest", 20, 30, Some(root), 7);
        t.span("bus.remote_hop", 30, 50, Some(root), 7);
        assert_eq!(unattributed_ratio(t.spans()), 0.0);
        assert_eq!(unattributed_ratio(&[]), 0.0);
    }
}
