//! The traced run's span recorder: spans are kept in memory and written out when the
//! run ends.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread; the innermost open span is the parent of the
/// next one opened.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        self.close_as(id, self.spans[id].name);
    }

    /// Closes `id` under a name decided by what the span saw.
    pub fn close_as(&mut self, id: usize, name: &'static str) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.name = name;
    }

    pub fn time<R>(&mut self, name: &'static str, request: u64, work: impl FnOnce() -> R) -> R {
        let id = self.open(name, request);
        let result = work();
        self.close(id);
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }
}

/// Each span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(id);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let mut intervals: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&child| {
                    let child = &spans[child];
                    (
                        child.start_ns.max(span.start_ns),
                        child.end_ns.min(span.end_ns),
                    )
                })
                .filter(|(start, end)| start < end)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Durations in nanoseconds of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.duration_ns() as f64)
        .collect()
}

/// Writes spans as JSON lines: `{"thread":..,"id":..,"name":..,"start_ns":..,...}`.
pub fn write_jsonl(path: &std::path::Path, threads: &[(&str, &[Span])]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads {
        let self_ns = self_times(spans);
        for (id, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, self_ns[id], span.request
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children() {
        let spans = vec![
            span("root", 0, 100, None),       // 0
            span("a", 10, 30, Some(0)),       // 1: back to back with 2
            span("b", 30, 50, Some(0)),       // 2
            span("a.inner", 12, 20, Some(1)), // 3: nested in 1
            span("c", 60, 90, Some(0)),       // 4
            span("c.x", 60, 70, Some(4)),     // 5: shares c's start
            span("c.y", 80, 90, Some(4)),     // 6: shares c's end
        ];
        let self_ns = self_times(&spans);
        // root: 100 - (20 + 20 + 30)
        assert_eq!(self_ns[0], 30);
        assert_eq!(self_ns[1], 20 - 8);
        assert_eq!(self_ns[2], 20);
        assert_eq!(self_ns[3], 8);
        assert_eq!(self_ns[4], 30 - 20);
        assert_eq!(self_ns[5], 10);
        assert_eq!(self_ns[6], 10);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span("root", 0, 50, None),
            span("x", 5, 25, Some(0)),
            span("y", 15, 35, Some(0)),
            span("z", 40, 60, Some(0)), // runs past its parent: clipped
        ];
        assert_eq!(self_times(&spans)[0], 50 - 30 - 10);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let mut recorder = Recorder::new(Instant::now());
        let outer = recorder.open("outer", 7);
        recorder.time("inner", 7, || std::hint::black_box(1 + 1));
        let renamed = recorder.open("step", 7);
        recorder.close_as(renamed, "idle_step");
        recorder.close(outer);
        let spans = recorder.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "idle_step");
        assert!(spans
            .iter()
            .all(|span| span.request == 7 && span.end_ns >= span.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
