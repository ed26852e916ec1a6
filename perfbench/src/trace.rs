//! In-memory span recorder for the traced pass. Spans are recorded from
//! the benchmark's own files, around the calls into each layer; they stay
//! in memory until the run ends and are then written out as JSON.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Position of the request in the workload's list; spans of one
    /// request share it.
    pub request: u32,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans begun and not yet ended, innermost last.
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` as a span of `request`, child of the innermost open span.
    /// `f` gets the recorder back to record spans of its own.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: usize,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, request: request as u32 });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id as usize];
        (span.start_ns, span.end_ns) = (start_ns, end_ns);
        out
    }

    /// Microseconds of every span called `name`, in recording order, with
    /// the request each belongs to.
    pub fn durations_us(&self, name: &str) -> Vec<(usize, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request as usize, (s.end_ns - s.start_ns) as f64 / 1e3))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `{"spans": [{"id", "name", "start_ns", "end_ns", "parent", "request"}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_request_and_order() {
        let mut rec = Recorder::new();
        let got = rec.span("request", 7, |rec| {
            rec.span("child_a", 7, |_| ());
            rec.span("child_b", 7, |_| 41) + 1
        });
        assert_eq!(got, 42);
        rec.span("request", 8, |_| ());
        let spans = &rec.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert_eq!(spans[3].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations_us("request").iter().map(|d| d.0).collect::<Vec<_>>(), [7, 8]);
        let parsed = serde_json::parse(&rec.to_json()).expect("the trace is JSON");
        assert_eq!(parsed.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len), Some(4));
    }
}
