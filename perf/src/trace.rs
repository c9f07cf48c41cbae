//! In-memory span recorder for the traced repetition.
//!
//! The driver wraps every call into a layer in [`Tracer::span`]. All spans of one block cycle
//! carry the block's number and have that cycle's [`Layer::Block`] span as parent, so the
//! harness's own cost is the block span's self time: its duration minus what its children
//! cover. Spans stay in memory and are written out after the repetition.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Where a span was recorded: one variant per layer boundary the driver crosses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One block cycle of the driver (parent of every other in-loop span).
    Block,
    Endorser,
    Arrival,
    Formation,
    Commit,
    LedgerBuild,
    LedgerAppend,
    LedgerCheckpoint,
    CcFeedback,
    /// `recover_from_disk` on the directory the loop wrote.
    Recovery,
    /// A bare `DurableLedger::open` of the same directory (segment scan + mirror rebuild).
    RecoveryScan,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Block => "driver.block",
            Layer::Endorser => "endorser",
            Layer::Arrival => "arrival",
            Layer::Formation => "formation",
            Layer::Commit => "commit",
            Layer::LedgerBuild => "ledger.build",
            Layer::LedgerAppend => "ledger.append",
            Layer::LedgerCheckpoint => "ledger.checkpoint",
            Layer::CcFeedback => "cc_feedback",
            Layer::Recovery => "recovery",
            Layer::RecoveryScan => "recovery.scan",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Block number the span belongs to (the chain height for recovery spans).
    pub block: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let parent = parent as usize;
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Records spans when enabled; with tracing off every method is a pass-through that takes no
/// timestamp.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open_block: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open_block: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the block span that parents every span recorded until [`Tracer::end_block`].
    pub fn begin_block(&mut self, block: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open_block = Some(self.spans.len() as u32);
        self.spans.push(Span {
            layer: Layer::Block,
            block,
            start_ns,
            end_ns: start_ns,
            parent: None,
        });
    }

    pub fn end_block(&mut self) {
        if let Some(index) = self.open_block.take() {
            self.spans[index as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `work` and, when enabled, records it as one span of `layer` under the open block.
    pub fn span<T>(&mut self, layer: Layer, block: u64, work: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return work();
        }
        let start_ns = self.now_ns();
        let out = work();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            block,
            start_ns,
            end_ns,
            parent: self.open_block,
        });
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span of `layer`, in microseconds, in recording order.
    pub fn durations_us(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Sum of the durations of every span of `layer`, in seconds.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Sum of the self times of every span of `layer`, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self_times_ns(&self.spans)
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.layer == layer)
            .map(|(own, _)| *own)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes one JSON object per span: `{name, block, start_ns, end_ns, parent}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"block\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                span.layer.name(),
                span.block,
                span.start_ns,
                span.end_ns,
                parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer,
            block: 1,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(Layer::Block, 0, 100, None),
            span(Layer::Endorser, 5, 35, Some(0)),
            span(Layer::Arrival, 40, 90, Some(0)),
            span(Layer::Recovery, 200, 260, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 50, 60]);
    }

    #[test]
    fn grandchildren_are_charged_to_their_own_parent_only() {
        let spans = [
            span(Layer::Block, 0, 100, None),
            span(Layer::Commit, 10, 60, Some(0)),
            span(Layer::LedgerAppend, 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn layer_busy_plus_driver_self_equals_the_block_spans() {
        let mut tracer = Tracer::new(true);
        for block in 1..=3 {
            tracer.begin_block(block);
            tracer.span(Layer::Endorser, block, || std::hint::black_box(block * 2));
            tracer.span(Layer::Commit, block, || std::hint::black_box(block * 3));
            tracer.end_block();
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 9);
        assert!(spans
            .iter()
            .all(|s| (s.layer == Layer::Block) == s.parent.is_none()));
        assert_eq!(spans[4].parent, Some(3));
        let total = tracer.busy_s(Layer::Block);
        let parts = tracer.busy_s(Layer::Endorser)
            + tracer.busy_s(Layer::Commit)
            + tracer.self_s(Layer::Block);
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_still_runs_the_work() {
        let mut tracer = Tracer::new(false);
        tracer.begin_block(1);
        assert_eq!(tracer.span(Layer::Commit, 1, || 7), 7);
        tracer.end_block();
        assert!(tracer.spans().is_empty());
    }
}
