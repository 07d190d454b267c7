//! In-memory spans around the calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! workload it belongs to. Spans stay in memory and are written out when
//! the traced run ends. A span's self time is its duration minus the
//! part of it its direct children cover.

use std::time::Instant;

use crate::json::{obj, string, Value};

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    /// The workload whose end-to-end metrics this span's layer should move.
    pub workload: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans; nesting follows the call structure.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index for
    /// [`Recorder::exit`].
    pub fn enter(&mut self, name: &str, workload: &'static str) -> usize {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            workload,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    /// Close the innermost open span, which must be `index`; returns its
    /// duration in seconds.
    pub fn exit(&mut self, index: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        self.spans[index].duration_ns() as f64 / 1e9
    }

    /// Run `f` inside a span. `f` gets the recorder back, to open child
    /// spans. Returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &str,
        workload: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let index = self.enter(name, workload);
        let result = f(self);
        (result, self.exit(index))
    }

    /// Every span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> Value {
        let self_ns = self.self_times_ns();
        Value::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    obj([
                        ("id", Value::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("name", string(&s.name)),
                        ("workload", string(s.workload)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("self_ns", Value::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time per span: duration minus the direct children's durations.
/// (Children of one parent never overlap: spans nest by call structure
/// on one thread.)
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            workload: "backbone",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("root", None, 0, 1000),
            span("a", Some(0), 100, 400),
            span("a.inner", Some(1), 150, 250),
            span("b", Some(0), 500, 900),
        ];
        // root: 1000 − (300 + 400); a: 300 − 100; grandchildren are not
        // subtracted from the root twice.
        assert_eq!(self_times_ns(&spans), vec![300, 200, 100, 400]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 1000, "self times partition the root");
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        let ((), outer_s) = rec.span("outer", "backbone", |rec| {
            rec.span("first", "backbone", |_| std::hint::black_box(1 + 1));
            rec.span("second", "ops_live", |rec| {
                rec.span("leaf", "ops_live", |_| ());
            });
        });
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "first", "second", "leaf"]);
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[3].end_ns <= spans[0].end_ns);
        assert_eq!(outer_s, spans[0].duration_ns() as f64 / 1e9);
        let own = rec.self_times_ns();
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
        assert!(rec.to_json().render().is_ok());
    }
}
