//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (nothing inside the program is instrumented). They stay in memory until
//! the run ends, when they are written out as Chrome trace events, and the
//! per-layer metrics are sums of span durations by name.

use std::time::Instant;

use vegeta::json::JsonValue;

/// One closed span: a named interval, optionally inside a parent span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The spans as Chrome trace events (`ph: "X"`, microsecond times),
    /// viewable offline in Perfetto or `chrome://tracing`.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut args = vec![("id".to_string(), JsonValue::from(id))];
                    if let Some(p) = s.parent {
                        args.push(("parent".into(), p.into()));
                    }
                    JsonValue::Object(vec![
                        ("name".into(), s.name.into()),
                        ("ph".into(), "X".into()),
                        ("pid".into(), 1u64.into()),
                        ("tid".into(), 1u64.into()),
                        ("ts".into(), (s.start_ns as f64 / 1e3).into()),
                        ("dur".into(), ((s.end_ns - s.start_ns) as f64 / 1e3).into()),
                        ("args".into(), JsonValue::Object(args)),
                    ])
                })
                .collect(),
        )
    }
}
