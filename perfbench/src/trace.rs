//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed only in this benchmark's own code, around
//! calls into the workspace crates. Each span has a name, a start and an
//! end (nanoseconds since the tracer was created), the span that caused it,
//! and a key shared by every span of one test file or statement. Spans stay
//! in memory and are written out once, when the run ends.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub parent: Option<SpanId>,
    /// Shared by the spans of one test file or statement (0 = none).
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span store. Spans can be recorded from scheduler workers.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        key: u64,
    ) -> SpanId {
        let start = self.now();
        self.record(Span { name: name.into(), parent, key, start_ns: start, end_ns: start })
    }

    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[id].end_ns = end;
    }

    /// Record an already-closed span.
    pub fn record(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Time `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent, 0);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as a tab-separated line:
    /// `id parent key name start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tkey\tname\tstart_ns\tend_ns")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(out, "{id}\t{parent}\t{}\t{}\t{}\t{}", s.key, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Wall-clock self time of the tree rooted at `root`, per group of
/// same-named siblings. Siblings of one name that ran concurrently (files
/// on parallel workers) count as one span covering the union of their
/// intervals, so the self times of the groups add up to the root's
/// duration. Returns `(name, self_ns)` per group, in tree order.
pub fn wall_self_times(spans: &[Span], root: SpanId) -> Vec<(String, u64)> {
    let mut kids: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    let mut out = Vec::new();
    walk_group(spans, &kids, &[root], &mut out);
    out
}

fn walk_group(
    spans: &[Span],
    kids: &[Vec<SpanId>],
    group: &[SpanId],
    out: &mut Vec<(String, u64)>,
) {
    let interval = |i: &SpanId| (spans[*i].start_ns, spans[*i].end_ns);
    let children: Vec<SpanId> = group.iter().flat_map(|g| kids[*g].iter().copied()).collect();
    let own = covered(&mut group.iter().map(interval).collect::<Vec<_>>(), 0, u64::MAX);
    let inner = covered(&mut children.iter().map(interval).collect::<Vec<_>>(), 0, u64::MAX);
    out.push((spans[group[0]].name.to_string(), own.saturating_sub(inner)));
    let mut names: Vec<&str> = Vec::new();
    for c in &children {
        if !names.contains(&&*spans[*c].name) {
            names.push(&spans[*c].name);
        }
    }
    for name in names {
        let same: Vec<SpanId> =
            children.iter().copied().filter(|c| spans[*c].name == name).collect();
        walk_group(spans, kids, &same, out);
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s".into(), parent, key: 0, start_ns, end_ns }
    }

    #[test]
    fn self_times_of_a_sequential_tree_sum_to_the_root() {
        let mut spans = vec![span(None, 0, 100), span(Some(0), 10, 40), span(Some(1), 20, 30)];
        spans[1].name = "child".into();
        spans[2].name = "grandchild".into();
        let groups = wall_self_times(&spans, 0);
        let want = [("s", 70), ("child", 20), ("grandchild", 10)];
        assert_eq!(groups, want.map(|(n, v)| (n.to_string(), v)));
    }

    #[test]
    fn concurrent_siblings_share_wall_clock() {
        let mut spans = vec![span(None, 0, 100), span(Some(0), 10, 60), span(Some(0), 40, 80)];
        spans[1].name = "file".into();
        spans[2].name = "file".into();
        let groups = wall_self_times(&spans, 0);
        assert_eq!(groups, vec![("s".to_string(), 30), ("file".to_string(), 70)]);
    }
}
