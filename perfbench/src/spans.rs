//! Timing around calls into the program's layers. Every timed call
//! returns its duration; in a span run it is also kept as a [`Span`],
//! under the span that was open when it started.

use std::time::Instant;

/// One timed call.
pub struct Span {
    /// `layer.call`, e.g. `system.run`; the layer is the part before
    /// the first dot.
    pub name: &'static str,
    /// Nanoseconds since the clock was made.
    pub start_ns: u64,
    /// Nanoseconds since the clock was made.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the cell the call belongs to.
    pub cell: Option<usize>,
}

impl Span {
    /// The layer the span times.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Times calls, and keeps them as spans when `record` is set.
pub struct Clock {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Clock {
    pub fn new(record: bool) -> Self {
        Clock {
            origin: Instant::now(),
            record,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as span `name` and returns its result and its seconds.
    /// `f` gets the clock back, so it can time the calls it makes.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Clock) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let index = self.record.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.last().copied(),
                cell,
            });
            self.spans.len() - 1
        });
        if let Some(i) = index {
            self.open.push(i);
        }
        let out = f(self);
        let seconds = start.elapsed().as_secs_f64();
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].end_ns = self.now_ns();
        }
        (out, seconds)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in seconds, sorted by layer name: each
    /// span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut by_layer: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            *by_layer.entry(span.layer()).or_default() += span.end_ns - span.start_ns - children;
        }
        by_layer
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 * 1e-9))
            .collect()
    }
}
