//! In-memory span recorder for the traced run, written out as a Chrome
//! trace-event file (opens in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions. A span's name is `<layer>.<op>`;
//! the layer is everything before the first `.`. Spans named `bench.*`
//! belong to the harness, so their self time is the traced time that no
//! layer span covers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The algorithm a cell-level span belongs to, if any.
    pub algo: Option<&'static str>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans of one workload run; every span carries its run id.
pub struct Tracer {
    epoch: Instant,
    pub run_id: String,
    spans: Mutex<Vec<Span>>,
    next_id: Mutex<usize>,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer {
            epoch: Instant::now(),
            run_id,
            spans: Mutex::new(Vec::new()),
            next_id: Mutex::new(0),
        }
    }

    /// Seconds since the epoch, the clock every span uses.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn alloc_id(&self) -> usize {
        let mut next = self.next_id.lock().expect("tracer id lock poisoned");
        *next += 1;
        *next
    }

    /// Time `f` as span `name` under `parent`; `f` receives the new
    /// span's id so it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        algo: Option<&'static str>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.alloc_id();
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.push(Span {
            id,
            parent,
            name,
            algo,
            start,
            end,
        });
        out
    }

    /// Record a span whose interval was observed rather than wrapped.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        algo: Option<&'static str>,
        start: f64,
        end: f64,
    ) {
        let id = self.alloc_id();
        self.push(Span {
            id,
            parent,
            name,
            algo,
            start,
            end,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("tracer span lock poisoned")
            .push(span);
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("tracer span lock poisoned")
            .clone();
        v.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        v
    }
}

/// Self time of each span: its duration minus the time its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<usize, f64> {
    let mut out: BTreeMap<usize, f64> = spans.iter().map(|s| (s.id, s.dur())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(t) = out.get_mut(&p) {
                *t -= s.dur();
            }
        }
    }
    out
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += selfs[&s.id];
    }
    out
}

/// Total duration of the spans called `name`, only those of `algo` if
/// given; 0 when there are none.
pub fn total(spans: &[Span], name: &str, algo: Option<&str>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && (algo.is_none() || s.algo == algo))
        .fold(0.0, |t, s| t + s.dur())
}

/// Render `spans` as a Chrome trace-event JSON document.
pub fn chrome_trace_json(tracer: &Tracer, spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        json_str(&format!("perfbench {}", tracer.run_id))
    );
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":{},\"name\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"run_id\":{},\"span_id\":{},\"parent\":{}",
            json_str(s.layer()),
            json_str(s.name),
            s.start * 1e6,
            s.dur() * 1e6,
            json_str(&tracer.run_id),
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
        if let Some(a) = s.algo {
            let _ = write!(out, ",\"algorithm\":{}", json_str(a));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::new("t".into());
        t.record("bench.sweep", None, None, 0.0, 10.0);
        t.record("tc-core.cell", Some(1), None, 1.0, 5.0);
        t.record("tc-algos.count", Some(2), None, 2.0, 4.0);
        let spans = t.spans();
        let layers = layer_self_times(&spans);
        assert_eq!(layers["bench"], 6.0);
        assert_eq!(layers["tc-core"], 2.0);
        assert_eq!(layers["tc-algos"], 2.0);
        let json = chrome_trace_json(&t, &spans);
        assert!(json.contains("\"parent\":1"), "{json}");
        assert!(json.contains("\"run_id\":\"t\""), "{json}");
    }
}
