//! In-memory spans for the traced run: each has a name, start, end,
//! parent and round id, is kept in memory while the run measures, and
//! is written out at the end as a chrome://tracing document.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed (or still open) interval; times are nanoseconds since
/// the tracer's creation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Spans of one round (one pass, frame or request) share this id.
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single-threaded span recorder; nesting follows call nesting.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        round: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            round,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (indexed like `spans`, whose ids must be
/// their indices).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            // Clip to the parent, then measure the union of intervals.
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|&(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name, in first-seen order: `(name, spans, total ns, self
/// ns)`.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let selves = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selves) {
        let dur = s.end_ns - s.start_ns;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += dur;
                r.3 += own;
            }
            None => rows.push((s.name, 1, dur, own)),
        }
    }
    rows
}

/// The spans as a chrome://tracing (`ph:"X"`) document; parent and
/// round ride in each event's `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"e2ebench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"round\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            parent,
            s.round
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_none() { "root" } else { "child" },
            round: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps the first child: the union counts 10..40 once.
            span(2, Some(0), 20, 40),
            // Runs past the parent's end: only 90..100 is inside it.
            span(3, Some(0), 90, 120),
            span(4, Some(1), 12, 18),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 30 - 10);
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 6);
        let rows = by_name(&spans);
        assert_eq!(rows[0], ("root", 1, 100, 60));
        assert_eq!(rows[1], ("child", 4, 20 + 20 + 30 + 6, 14 + 20 + 30 + 6));
    }

    #[test]
    fn tracer_nests_by_call_and_exports_chrome_events() {
        let mut t = Tracer::new();
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let doc = chrome_trace(s);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"inner\""));
        assert!(doc.contains("\"parent\":0,\"round\":7"));
    }
}
