//! The process-wide metrics registry: named counters, gauges, and
//! histograms, plus the wall-clock [`Span`] guard that feeds them.
//!
//! Handles ([`Counter`], [`Gauge`], [`SharedHistogram`]) are interned by
//! name on first use and shared via [`Arc`], so instrumentation sites pay
//! one map lookup per call site invocation and one atomic op per record.
//! Every handle carries the registry's recording flag: flipping
//! [`Registry::set_recording`] to `false` turns all of them into no-ops,
//! which is how the no-perturbation test produces an "uninstrumented"
//! run without a second code path.

use crate::histogram::Histogram;
use crate::journal::Journal;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Recovers the guard from a poisoned mutex: registry state is plain
/// counters and maps that stay internally consistent, and metrics must
/// never take the process down.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    fn new(enabled: Arc<AtomicBool>) -> Counter {
        Counter {
            value: AtomicU64::new(0),
            enabled,
        }
    }

    /// Adds `n` to the counter (no-op while recording is off).
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, live threads).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    fn new(enabled: Arc<AtomicBool>) -> Gauge {
        Gauge {
            value: AtomicI64::new(0),
            enabled,
        }
    }

    /// Sets the gauge (no-op while recording is off).
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A thread-safe [`Histogram`]: recording is a handful of integer ops
/// behind a mutex, negligible next to the stage runtimes it measures.
#[derive(Debug)]
pub struct SharedHistogram {
    inner: Mutex<Histogram>,
    enabled: Arc<AtomicBool>,
}

impl SharedHistogram {
    fn new(enabled: Arc<AtomicBool>) -> SharedHistogram {
        SharedHistogram {
            inner: Mutex::new(Histogram::new()),
            enabled,
        }
    }

    /// Records one sample of `us` microseconds (no-op while recording is
    /// off).
    pub fn record_us(&self, us: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            lock(&self.inner).record_us(us);
        }
    }

    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> Histogram {
        lock(&self.inner).clone()
    }
}

/// A wall-clock span: records its elapsed time into a histogram when
/// dropped (or explicitly [`finish`](Span::finish)ed). Spans measure; they
/// never feed back into the computation they wrap — that is the registry's
/// no-perturbation guarantee.
#[derive(Debug)]
pub struct Span {
    hist: Arc<SharedHistogram>,
    started: Instant,
}

impl Span {
    /// Starts a span recording into `hist`.
    pub fn enter(hist: Arc<SharedHistogram>) -> Span {
        Span {
            hist,
            started: Instant::now(),
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.started.elapsed());
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<SharedHistogram>),
}

/// One registry's full state at a point in time, with names sorted so
/// every rendering of it is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram copies by name.
    pub histograms: Vec<(String, Histogram)>,
    /// The journal's recent events, oldest first.
    pub events: Vec<crate::journal::Event>,
}

/// A named-metric registry plus an event [`Journal`].
///
/// The process-wide instance is [`crate::global`]; tests that assert
/// exact counts construct their own with [`Registry::new`] so parallel
/// tests cannot pollute each other.
#[derive(Debug)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, Metric>>,
    journal: Arc<Journal>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with recording enabled and a 256-event journal.
    pub fn new() -> Registry {
        let enabled = Arc::new(AtomicBool::new(true));
        Registry {
            journal: Arc::new(Journal::new(256, Arc::clone(&enabled))),
            metrics: Mutex::new(BTreeMap::new()),
            enabled,
        }
    }

    /// Whether record operations currently take effect.
    pub fn recording(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off for every handle this registry issued
    /// (existing and future). Reads ([`Snapshot`]) are unaffected.
    pub fn set_recording(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The registry's event journal.
    pub fn journal(&self) -> Arc<Journal> {
        Arc::clone(&self.journal)
    }

    /// The counter named `name`, interned on first use. If the name is
    /// already taken by a different metric kind, a detached (unlisted)
    /// handle is returned rather than corrupting the registered one.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = lock(&self.metrics);
        match m.get(name) {
            Some(Metric::Counter(c)) => Arc::clone(c),
            Some(_) => Arc::new(Counter::new(Arc::clone(&self.enabled))),
            None => {
                let c = Arc::new(Counter::new(Arc::clone(&self.enabled)));
                m.insert(name.to_string(), Metric::Counter(Arc::clone(&c)));
                c
            }
        }
    }

    /// The gauge named `name`, interned on first use (same collision rule
    /// as [`counter`](Self::counter)).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = lock(&self.metrics);
        match m.get(name) {
            Some(Metric::Gauge(g)) => Arc::clone(g),
            Some(_) => Arc::new(Gauge::new(Arc::clone(&self.enabled))),
            None => {
                let g = Arc::new(Gauge::new(Arc::clone(&self.enabled)));
                m.insert(name.to_string(), Metric::Gauge(Arc::clone(&g)));
                g
            }
        }
    }

    /// The histogram named `name`, interned on first use (same collision
    /// rule as [`counter`](Self::counter)).
    pub fn histogram(&self, name: &str) -> Arc<SharedHistogram> {
        let mut m = lock(&self.metrics);
        match m.get(name) {
            Some(Metric::Histogram(h)) => Arc::clone(h),
            Some(_) => Arc::new(SharedHistogram::new(Arc::clone(&self.enabled))),
            None => {
                let h = Arc::new(SharedHistogram::new(Arc::clone(&self.enabled)));
                m.insert(name.to_string(), Metric::Histogram(Arc::clone(&h)));
                h
            }
        }
    }

    /// Starts a wall-clock span recording into the histogram `name`.
    pub fn span(&self, name: &str) -> Span {
        Span::enter(self.histogram(name))
    }

    /// A sorted point-in-time snapshot of every metric and the journal.
    pub fn snapshot(&self) -> Snapshot {
        let m = lock(&self.metrics);
        let mut snap = Snapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => {
                    snap.histograms.push((name.clone(), h.snapshot()));
                }
            }
        }
        drop(m);
        snap.events = self.journal.recent();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_intern_by_name() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 3);
        r.gauge("depth").set(7);
        r.gauge("depth").add(-2);
        assert_eq!(r.gauge("depth").get(), 5);
        r.histogram("lat").record_us(10);
        assert_eq!(r.histogram("lat").snapshot().count(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 3)]);
        assert_eq!(snap.gauges, vec![("depth".to_string(), 5)]);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn disabling_recording_makes_every_handle_a_noop() {
        let r = Registry::new();
        let c = r.counter("n");
        let g = r.gauge("g");
        let h = r.histogram("h");
        r.set_recording(false);
        assert!(!r.recording());
        c.add(5);
        g.set(9);
        h.record_us(100);
        r.journal().note("kind", "dropped");
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
        assert!(r.journal().recent().is_empty());
        r.set_recording(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn spans_record_wall_clock_on_drop() {
        let r = Registry::new();
        {
            let _span = r.span("stage.x");
            std::thread::sleep(Duration::from_millis(2));
        }
        let h = r.histogram("stage.x").snapshot();
        assert_eq!(h.count(), 1);
        assert!(h.max_us() >= 1_000, "span recorded {} µs", h.max_us());
        r.span("stage.x").finish();
        assert_eq!(r.histogram("stage.x").snapshot().count(), 2);
    }

    #[test]
    fn kind_collisions_return_detached_handles() {
        let r = Registry::new();
        r.counter("name").inc();
        // Same name as a gauge: detached, does not clobber the counter.
        r.gauge("name").set(9);
        r.histogram("name").record_us(5);
        assert_eq!(r.counter("name").get(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
