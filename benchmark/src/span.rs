//! Bench-side spans: one record around every call into a layer.
//!
//! Spans are recorded from the benchmark's own files only (host-wall spans
//! *inside* `enact` are a later change to the program). They are kept in a
//! `Vec` and written out as Chrome `trace_event` JSON when the run ends. A
//! disabled recorder does nothing, so end-to-end passes pay no tracing cost.

use std::sync::Mutex;
use std::time::Instant;

/// Pass id of spans recorded during set-up.
pub const SETUP: i32 = -1;
/// Pass id of spans recorded by the layer probes.
pub const PROBE: i32 = -2;

/// Where a new span hangs: its parent, the pass and the query it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct At {
    pub parent: Option<usize>,
    pub pass: i32,
    pub query: u32,
}

impl At {
    /// A root position in `pass`.
    pub fn pass(pass: i32) -> Self {
        At { parent: None, pass, query: 0 }
    }

    /// The same position, one level down under `parent`.
    pub fn under(self, parent: Option<usize>) -> Self {
        At { parent, ..self }
    }

    /// The same position, for query `query`.
    pub fn query(self, query: u32) -> Self {
        At { query, ..self }
    }
}

/// One closed (or still open) span. Times are microseconds since the
/// recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The primitive the span served ("" for none).
    pub tag: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub pass: i32,
    pub query: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span store. Shared by reference with service worker threads, hence
/// the mutex; it is taken twice per span, around calls that take
/// milliseconds.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { epoch: Instant::now(), enabled, spans: Mutex::new(Vec::new()) }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span is never recorded while panicking")
    }

    /// Time `f` as a span named `name`; `f` receives the span's own id to
    /// hang children under (`None` when recording is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        at: At,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let start_us = self.now_us();
            let mut spans = self.lock();
            spans.push(Span {
                name,
                tag,
                start_us,
                end_us: start_us,
                parent: at.parent,
                pass: at.pass,
                query: at.query,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_us = self.now_us();
        self.lock()[id].end_us = end_us;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time per span: its duration minus the part of its interval that its
/// child spans cover (children that ran concurrently are merged first, so
/// overlap is not subtracted twice).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Chrome `trace_event` JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span. Spans of one pass share a `pid`, spans of one query
/// a `tid`; parent id and self time ride in `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let self_us = self_times_us(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (id, (s, own)) in spans.iter().zip(&self_us).enumerate() {
        if id > 0 {
            out.push(',');
        }
        let name =
            if s.tag.is_empty() { s.name.to_string() } else { format!("{} [{}]", s.name, s.tag) };
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\
             \"args\":{{\"id\":{id},\"parent\":{parent},\"pass\":{},\"query\":{},\"self_us\":{own:.3}}}}}",
            s.start_us,
            s.dur_us(),
            s.pass,
            s.query,
            s.pass,
            s.query,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name: "s", tag: "", start_us, end_us, parent, pass: 0, query: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 40.0, Some(0)),
            span(30.0, 60.0, Some(0)),  // overlaps the first child by 10
            span(90.0, 120.0, Some(0)), // clipped to the parent's end
            span(15.0, 20.0, Some(1)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 100.0 - (50.0 + 10.0));
        assert_eq!(own[1], 30.0 - 5.0);
        assert_eq!(own[2], 30.0);
        assert_eq!(own[4], 5.0);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_is_inert() {
        let rec = Recorder::new(true);
        let inner = rec.span("outer", "", At::pass(3), |outer| {
            rec.span("inner", "bfs", At::pass(3).under(outer).query(7), |id| id)
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(inner, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].pass, spans[1].query, spans[1].tag), (3, 7, "bfs"));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        let json = to_chrome_json(&spans);
        assert!(json.contains("\"name\":\"inner [bfs]\"") && json.contains("\"parent\":0"));

        let off = Recorder::new(false);
        assert_eq!(off.span("x", "", At::pass(0), |id| id), None);
        assert!(off.spans().is_empty());
    }
}
