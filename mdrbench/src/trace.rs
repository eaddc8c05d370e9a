//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end, and the span that was
//! open when it began; every span of one process carries the same run
//! id. Spans stay in memory and are written out once, at exit. A
//! layer's self time is the time its spans were open minus the part of
//! that time their child spans cover. With tracing off, [`Tracer::span`]
//! just calls the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// `layer.call`, e.g. `fluid.run`; the layer is the part before the
    /// first dot.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer for one run. Spans are only recorded when `enabled`.
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer { enabled, run_id, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f`
    /// (through the tracer it is handed) become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied();
        self.open.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span { parent, name, start_ns, end_ns: 0 });
        let out = f(self);
        self.spans[idx as usize].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as CSV to `path`: a `# run <id>` line, a header,
    /// then `id,parent,name,start_ns,end_ns` per span (`parent` empty
    /// for a root span; `id` is the span's index).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# run {}", self.run_id)?;
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(w, "{i},{parent},{},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer, in nanoseconds, over the spans that descend
/// from (or are) a root span called `root`.
pub fn layer_self_ns(spans: &[Span], root: &str) -> BTreeMap<&'static str, u64> {
    let mut under = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    for (i, (s, t)) in spans.iter().zip(self_times(spans)).enumerate() {
        // Parents precede their children, so one pass suffices.
        under[i] = match s.parent {
            None => s.name == root,
            Some(p) => under[p as usize],
        };
        if under[i] {
            *out.entry(s.layer()).or_insert(0) += t;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { parent, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // rep [0,100] ⊃ sim.run [10,60] ⊃ routing.stats [20,30];
        // rep ⊃ opt.solve [70,90].
        let spans = [
            span(None, "rep", 0, 100),
            span(Some(0), "sim.run", 10, 60),
            span(Some(1), "routing.stats", 20, 30),
            span(Some(0), "opt.solve", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let layers = layer_self_ns(&spans, "rep");
        assert_eq!(layers["rep"], 30);
        assert_eq!(layers["sim"], 40);
        assert_eq!(layers["routing"], 10);
        assert_eq!(layers["opt"], 20);
        // Self times partition the root's duration.
        assert_eq!(layers.values().sum::<u64>(), 100);
        // Spans outside the named root are left out.
        let mut more = spans.to_vec();
        more.push(span(None, "setup", 100, 130));
        more.push(span(Some(4), "gen.topology", 105, 125));
        assert_eq!(layer_self_ns(&more, "rep"), layers);
        assert_eq!(layer_self_ns(&more, "setup")["gen"], 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(None, "rep", 0, 100),
            span(Some(0), "a.x", 10, 50),
            span(Some(0), "b.y", 40, 120), // overlaps a.x and outlives rep
        ];
        // Covered: [10,100] = 90.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true, 7);
        let v = tr.span("rep", |tr| tr.span("node.on_tick", |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "node");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false, 7);
        assert_eq!(off.span("rep", |tr| tr.span("x.y", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
