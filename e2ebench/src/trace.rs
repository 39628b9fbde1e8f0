//! Bench-side tracing: a span recorder and decorators around the public
//! seams of each layer.
//!
//! This PR changes no product code, so every span is taken from
//! outside: [`TimedSource`] around a `CandidateSource`'s `ranking` /
//! `next` / `range`, [`TimedMeasure`] around a `DistanceMeasure`'s
//! prepared kernel (LB_IM, the first-stage scan kernel, `ExactEmd`), and
//! [`TimedVfs`] around every file read of the paged store. Spans are
//! held in memory and written out when the run ends. A span's name is
//! `<layer>.<what>`, the layer being the module that does the work.
//!
//! The recorder keeps one stack of open spans: the traced pass runs the
//! decorated pipeline on a single thread.

use earthmover_core::lower_bounds::{DistanceKernel, DistanceMeasure};
use earthmover_core::multistep::{CandidateSource, RankingCursor, SourceCost};
use earthmover_core::{Histogram, PipelineError};
use earthmover_storage::{StdVfs, Vfs, VfsFile};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The request the span belongs to.
    pub request: u32,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

/// Collects spans in memory.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::default(),
        }
    }
}

impl Recorder {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Every update leaves the vectors valid, so a poisoned lock
        // (a panicking decorated call) can be recovered.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn set_request(&self, id: u32) {
        self.lock().request = id;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut inner = self.lock();
            let index = inner.spans.len() as u32;
            let span = Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: inner.open.last().copied().unwrap_or(NO_PARENT),
                request: inner.request,
            };
            inner.spans.push(span);
            inner.open.push(index);
            index
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut inner = self.lock();
        inner.open.pop();
        if let Some(span) = inner.spans.get_mut(index as usize) {
            span.start_ns = start;
            span.end_ns = end;
        }
        out
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the part of it its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, i64> {
    let mut totals: BTreeMap<&'static str, i64> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns.saturating_sub(span.start_ns) as i64;
        *totals.entry(span.name).or_default() += duration;
        if let Some(parent) = spans.get(span.parent as usize) {
            *totals.entry(parent.name).or_default() -= duration;
        }
    }
    totals
}

/// Writes the spans of the first `requests` requests as JSON lines:
/// name, start, end, parent (index into the file, -1 for roots) and
/// request id.
pub fn dump(spans: &[Span], requests: u32, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let kept = spans.iter().take_while(|s| s.request < requests);
    for span in kept {
        let parent = if span.parent == NO_PARENT {
            -1
        } else {
            i64::from(span.parent)
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            span.name, span.start_ns, span.end_ns, span.request
        )?;
    }
    out.flush()
}

/// Span names a [`TimedSource`] uses.
#[derive(Debug, Clone, Copy)]
pub struct SourceNames {
    /// Around `CandidateSource::ranking`.
    pub ranking: &'static str,
    /// Around each `RankingCursor::next`.
    pub next: &'static str,
    /// Around `CandidateSource::range`.
    pub range: &'static str,
}

/// The R-tree first stage: the work happens in `crates/rtree`.
pub const RTREE: SourceNames = SourceNames {
    ranking: "rtree.ranking",
    next: "rtree.next",
    range: "rtree.range",
};

/// The scan first stage: block iteration and the full ranking sort
/// happen in `multistep/source.rs`; its kernel and its reads are child
/// spans of their own layers.
pub const SCAN: SourceNames = SourceNames {
    ranking: "multistep.scan_ranking",
    next: "multistep.scan_next",
    range: "multistep.scan_range",
};

/// A `CandidateSource` with spans around its entry points.
pub struct TimedSource<'r, S> {
    /// The decorated source.
    pub inner: S,
    /// Where spans go.
    pub recorder: &'r Recorder,
    /// What they are called.
    pub names: SourceNames,
}

impl<S: CandidateSource> CandidateSource for TimedSource<'_, S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ranking<'s>(&'s self, q: &Histogram) -> Result<Box<dyn RankingCursor + 's>, PipelineError> {
        let inner = self
            .recorder
            .time(self.names.ranking, || self.inner.ranking(q))?;
        Ok(Box::new(TimedCursor {
            inner,
            recorder: self.recorder,
            name: self.names.next,
        }))
    }

    fn range(
        &self,
        q: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<(usize, f64)>, SourceCost), PipelineError> {
        self.recorder
            .time(self.names.range, || self.inner.range(q, epsilon))
    }
}

struct TimedCursor<'s> {
    inner: Box<dyn RankingCursor + 's>,
    recorder: &'s Recorder,
    name: &'static str,
}

impl RankingCursor for TimedCursor<'_> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, PipelineError> {
        self.recorder.time(self.name, || self.inner.next())
    }

    fn cost(&self) -> SourceCost {
        self.inner.cost()
    }
}

/// A `DistanceMeasure` whose prepared kernel records a span per
/// evaluation (`eval` for single rows, `block` for whole blocks).
pub struct TimedMeasure<'r, M> {
    /// The decorated measure.
    pub inner: M,
    /// Where spans go.
    pub recorder: &'r Recorder,
    /// Span name of single-row evaluations.
    pub eval: &'static str,
    /// Span name of block evaluations.
    pub block: &'static str,
}

impl<M: DistanceMeasure> DistanceMeasure for TimedMeasure<'_, M> {
    fn distance(&self, x: &Histogram, y: &Histogram) -> f64 {
        self.recorder.time(self.eval, || self.inner.distance(x, y))
    }

    fn try_distance_noted(
        &self,
        x: &Histogram,
        y: &Histogram,
    ) -> Result<(f64, Option<&'static str>), PipelineError> {
        self.recorder
            .time(self.eval, || self.inner.try_distance_noted(x, y))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_signature(&self) -> Option<u64> {
        self.inner.cache_signature()
    }

    fn prepare<'m>(&'m self, q: &Histogram) -> Box<dyn DistanceKernel + 'm> {
        Box::new(TimedKernel {
            inner: self.inner.prepare(q),
            recorder: self.recorder,
            eval: self.eval,
            block: self.block,
        })
    }
}

struct TimedKernel<'m> {
    inner: Box<dyn DistanceKernel + 'm>,
    recorder: &'m Recorder,
    eval: &'static str,
    block: &'static str,
}

impl DistanceKernel for TimedKernel<'_> {
    fn eval(&self, cand: &[f64]) -> f64 {
        self.recorder.time(self.eval, || self.inner.eval(cand))
    }

    fn try_eval_noted(&self, cand: &[f64]) -> Result<(f64, Option<&'static str>), PipelineError> {
        self.recorder
            .time(self.eval, || self.inner.try_eval_noted(cand))
    }

    fn eval_block(&self, block: &[f64], stride: usize, out: &mut [f64]) {
        self.recorder
            .time(self.block, || self.inner.eval_block(block, stride, out));
    }
}

/// Read counters of a [`TimedVfs`], shared with every file it opened.
#[derive(Debug, Default)]
pub struct ReadCounters {
    /// `read_at` calls.
    pub calls: AtomicU64,
    /// Bytes those calls returned.
    pub bytes: AtomicU64,
    /// Nanoseconds spent inside them.
    pub nanos: AtomicU64,
}

/// `StdVfs` with every read counted and timed, and recorded as a
/// `storage.read` span when a recorder is attached.
#[derive(Default)]
pub struct TimedVfs {
    /// Totals over every file opened through this VFS.
    pub counters: Arc<ReadCounters>,
    /// Receives a span per read, when set.
    pub recorder: Option<Arc<Recorder>>,
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<ReadCounters>,
    recorder: Option<Arc<Recorder>>,
}

impl TimedVfs {
    fn wrap(&self, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(TimedFile {
            inner,
            counters: Arc::clone(&self.counters),
            recorder: self.recorder.clone(),
        })
    }
}

impl Vfs for TimedVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        StdVfs.create(path).map(|f| self.wrap(f))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        StdVfs.open(path).map(|f| self.wrap(f))
    }
}

impl VfsFile for TimedFile {
    fn read_at(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let started = Instant::now();
        let inner = &mut self.inner;
        let result = match &self.recorder {
            Some(recorder) => recorder.time("storage.read", || inner.read_at(buf, offset)),
            None => inner.read_at(buf, offset),
        };
        let counters = &self.counters;
        counters
            .nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        counters.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(n) = &result {
            counters.bytes.fetch_add(*n as u64, Ordering::Relaxed);
        }
        result
    }

    fn write_at(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.inner.write_at(buf, offset)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = [
            span("multistep.knn", 0, 100, NO_PARENT),
            span("transport.solve", 10, 40, 0),
            span("transport.solve", 50, 70, 0),
            span("rtree.next", 70, 75, 0),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["multistep.knn"], 45);
        assert_eq!(totals["transport.solve"], 50);
        assert_eq!(totals["rtree.next"], 5);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let recorder = Recorder::default();
        recorder.set_request(3);
        recorder.time("a.outer", || recorder.time("b.inner", || ()));
        let spans = recorder.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].request, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
