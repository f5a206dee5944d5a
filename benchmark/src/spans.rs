//! Spans recorded by the benchmark's own code around each public call
//! into a layer — held in memory, written out when the run ends.

use std::time::Instant;

use robust_multicast::core::runner::Json;

/// One timed interval. `parent` indexes the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// The spans of one traced pass over one workload.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now; returns its id for [`Spans::close`] and for
    /// children to name as their parent.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// End span `id` now; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        self_time_ns(&self.spans, id)
    }

    /// Every span as `{name, workload, start_ns, end_ns, parent,
    /// self_ns}`, in recording order.
    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            (0..self.spans.len())
                .map(|id| {
                    let s = &self.spans[id];
                    Json::obj([
                        ("name", Json::Str(s.name.clone())),
                        ("workload", Json::Str(workload.into())),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("self_ns", Json::U64(self.self_time_ns(id))),
                    ])
                })
                .collect(),
        )
    }
}

fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let own = spans[id].end_ns - spans[id].start_ns;
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    own.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("build", 0, 100, None),
            span("apply", 10, 40, Some(0)),
            span("inner", 15, 20, Some(1)),
            span("finalize", 50, 70, Some(0)),
            span("run", 100, 300, None),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_time_ns(&spans, 1), 30 - 5);
        assert_eq!(self_time_ns(&spans, 2), 5);
        assert_eq!(self_time_ns(&spans, 4), 200);
    }

    #[test]
    fn open_and_close_nest_by_explicit_parent() {
        let mut s = Spans::new();
        let outer = s.open("outer", None);
        let inner = s.open("inner", Some(outer));
        s.close(inner);
        s.close(outer);
        assert_eq!(s.spans[inner].parent, Some(outer));
        assert!(s.spans[outer].end_ns >= s.spans[inner].end_ns);
        assert!(s.self_time_ns(outer) <= s.spans[outer].end_ns - s.spans[outer].start_ns);
    }
}
