//! Spans recorded by the benchmark around each public call into the
//! crates, kept in memory and written out when the run ends. No span is
//! added inside any crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval: what ran, when, under which span, for which
/// operation (pass, request or iteration id).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index into the trace's name table.
    pub name: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub op: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

/// An in-memory span log on one clock.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now. Room for the spans of a
    /// whole run is reserved up front so recording does not allocate
    /// inside the sections whose allocations are being counted.
    pub fn new() -> Trace {
        Trace { epoch: Instant::now(), names: Vec::new(), spans: Vec::with_capacity(1 << 17) }
    }

    /// Nanoseconds since the trace's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the trace's epoch to `at` (zero if earlier).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The table index of `name`, added on first use. Intern names
    /// during set-up, not inside a measured section.
    pub fn intern(&mut self, name: &str) -> usize {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_owned());
                self.names.len() - 1
            }
        }
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: usize,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns: end_ns.max(start_ns), parent, op });
        self.spans.len() - 1
    }

    /// Widens span `index` to end at `end_ns` (a parent recorded before
    /// its children finished).
    pub fn close(&mut self, index: usize, end_ns: u64) {
        self.spans[index].end_ns = end_ns.max(self.spans[index].start_ns);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the durations of its direct children.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(self.names[s.name].clone()).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The trace as one JSON document: `{"spans": [...], "self_time": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 1024);
        out.push_str("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                self.names[s.name], s.start_ns, s.end_ns, s.op
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("], \"self_time\": {\n");
        let totals = self.totals();
        for (i, (name, t)) in totals.iter().enumerate() {
            let _ = write!(
                out,
                "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            );
            out.push_str(if i + 1 < totals.len() { ",\n" } else { "\n" });
        }
        out.push_str("}}\n");
        out
    }

    /// Writes the trace to `path`, creating the directory if needed.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Trace::new();
        let pass = t.intern("pass");
        let layer = t.intern("exec.layer");
        let phase = t.intern("exec.phase");
        assert_eq!(t.intern("pass"), pass);
        let p = t.record(pass, 0, 1_000, None, 7);
        let l = t.record(layer, 100, 900, Some(p), 7);
        t.record(phase, 100, 400, Some(l), 7);
        t.record(phase, 400, 800, Some(l), 7);
        let totals = t.totals();
        assert_eq!(totals["pass"], NameTotals { count: 1, total_ns: 1_000, self_ns: 200 });
        assert_eq!(totals["exec.layer"], NameTotals { count: 1, total_ns: 800, self_ns: 100 });
        assert_eq!(totals["exec.phase"], NameTotals { count: 2, total_ns: 700, self_ns: 700 });
        let json = t.to_json();
        assert!(json.contains("\"name\": \"exec.layer\", \"start_ns\": 100, \"end_ns\": 900, \"parent\": 0, \"op\": 7"));
    }

    #[test]
    fn a_parent_can_be_closed_after_its_children() {
        let mut t = Trace::new();
        let n = t.intern("request");
        let r = t.record(n, 50, 50, None, 1);
        t.close(r, 80);
        assert_eq!(t.totals()["request"].total_ns, 30);
    }
}
