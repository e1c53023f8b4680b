//! The per-run recorder the instrumented simulators share.
//!
//! One [`Recorder`] lives for the duration of one observed run. The
//! cache hierarchy, DRAM model, and CPU each hold a clone of the same
//! [`ObsHandle`] (`Rc<RefCell<Recorder>>` — a run is single-threaded;
//! `run_sweep` attaches none) and call the
//! `#[inline]` hook methods from their hot paths. Counter hooks are
//! unconditional plain-field increments so the observed counts match the
//! simulator's own `stats.rs` aggregates bit-exactly; event tracing is
//! gated by [`ObsConfig::trace_events`] and thinned by
//! [`ObsConfig::sample_every`].

use std::cell::RefCell;
use std::rc::Rc;

use crate::events::{EventKind, EventSink, Level, ObsEvent, RingBuffer};
use crate::metrics::{Histogram, Metrics};

/// Shared handle to a run's [`Recorder`].
///
/// Cheap to clone; instrumented structures store `Option<ObsHandle>` so
/// the un-attached cost is a single branch per access.
pub type ObsHandle = Rc<RefCell<Recorder>>;

/// Runtime observability knobs: what an attached recorder does. The
/// hooks are always compiled; a model with no recorder attached skips
/// each one on a single `Option` check.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Record every Nth cache-access event (1 = all). Evictions and DRAM
    /// events are rarer and always recorded. Counters ignore sampling —
    /// they are exact regardless.
    pub sample_every: u64,
    /// Ring-buffer capacity in events; the oldest are dropped (and
    /// counted) beyond this.
    pub ring_capacity: usize,
    /// Master switch for event tracing. Off: only counters accumulate.
    pub trace_events: bool,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            sample_every: 1,
            ring_capacity: 65_536,
            trace_events: false,
        }
    }
}

/// Exact counters bumped from simulation inner loops.
///
/// Plain public fields, no name lookup: the named-metric translation
/// happens once, in [`Recorder::metrics`]. Miss counts are tracked
/// directly (not derived) so equality with `CacheStats` is structural.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotCounters {
    /// L1 demand accesses.
    pub l1_accesses: u64,
    /// L1 demand hits.
    pub l1_hits: u64,
    /// L1 demand misses.
    pub l1_misses: u64,
    /// L1 store accesses.
    pub l1_writes: u64,
    /// Valid blocks evicted from L1.
    pub l1_evictions: u64,
    /// Dirty blocks evicted from L1 (writebacks to L2).
    pub l1_dirty_evictions: u64,
    /// L2 demand accesses (L1 misses; excludes L1 writebacks).
    pub l2_accesses: u64,
    /// L2 demand hits.
    pub l2_hits: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// L2 demand store accesses.
    pub l2_writes: u64,
    /// Valid blocks evicted from L2.
    pub l2_evictions: u64,
    /// Dirty blocks evicted from L2 (writebacks to memory).
    pub l2_dirty_evictions: u64,
    /// DRAM read requests.
    pub dram_reads: u64,
    /// DRAM write requests.
    pub dram_writes: u64,
    /// DRAM requests that hit the open row.
    pub dram_row_hits: u64,
    /// Total cycles DRAM requests spent queued on busy banks/buses.
    pub dram_queue_cycles: u64,
}

/// Accumulates one run's observability state.
#[derive(Debug)]
pub struct Recorder {
    cfg: ObsConfig,
    now: u64,
    tick: u64,
    /// The exact hot counters (public: the integration tests compare
    /// them field-by-field with `stats.rs` aggregates).
    pub hot: HotCounters,
    l2_set_evictions: Vec<u64>,
    ring: RingBuffer,
}

impl Recorder {
    /// Creates a recorder with the given runtime config.
    #[must_use]
    pub fn new(cfg: ObsConfig) -> Recorder {
        let ring = RingBuffer::new(cfg.ring_capacity);
        Recorder {
            cfg,
            now: 0,
            tick: 0,
            hot: HotCounters::default(),
            l2_set_evictions: Vec::new(),
            ring,
        }
    }

    /// Creates a shareable handle (the form instrumented structures
    /// attach).
    #[must_use]
    pub fn handle(cfg: ObsConfig) -> ObsHandle {
        Rc::new(RefCell::new(Recorder::new(cfg)))
    }

    /// Updates the sim-time clock stamped onto subsequent events. The
    /// CPU model calls this as it retires trace events.
    #[inline]
    pub fn set_now(&mut self, t: u64) {
        self.now = t;
    }

    /// Current sim-time clock.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The runtime config this recorder was built with.
    #[must_use]
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// Hook: a demand access probed `level`. Counters always; an
    /// `access` event every [`ObsConfig::sample_every`]th call when
    /// tracing is on.
    #[inline]
    pub fn cache_access(&mut self, level: Level, set: u32, hit: bool, write: bool) {
        match level {
            Level::L1 => {
                self.hot.l1_accesses += 1;
                self.hot.l1_hits += u64::from(hit);
                self.hot.l1_misses += u64::from(!hit);
                self.hot.l1_writes += u64::from(write);
            }
            Level::L2 => {
                self.hot.l2_accesses += 1;
                self.hot.l2_hits += u64::from(hit);
                self.hot.l2_misses += u64::from(!hit);
                self.hot.l2_writes += u64::from(write);
            }
        }
        if self.cfg.trace_events {
            self.tick += 1;
            if self.tick.is_multiple_of(self.cfg.sample_every.max(1)) {
                self.ring.push(ObsEvent {
                    t: self.now,
                    kind: EventKind::Access {
                        level,
                        set,
                        hit,
                        write,
                    },
                });
            }
        }
    }

    /// Hook: a valid block was evicted from `level`. Always counted;
    /// traced un-sampled when tracing is on (evictions are the signal
    /// per-set conflict analysis needs complete).
    #[inline]
    pub fn eviction(&mut self, level: Level, set: u32, dirty: bool) {
        match level {
            Level::L1 => {
                self.hot.l1_evictions += 1;
                self.hot.l1_dirty_evictions += u64::from(dirty);
            }
            Level::L2 => {
                self.hot.l2_evictions += 1;
                self.hot.l2_dirty_evictions += u64::from(dirty);
                let idx = set as usize;
                if idx >= self.l2_set_evictions.len() {
                    self.l2_set_evictions.resize(idx + 1, 0);
                }
                self.l2_set_evictions[idx] += 1;
            }
        }
        if self.cfg.trace_events {
            self.ring.push(ObsEvent {
                t: self.now,
                kind: EventKind::Eviction { level, set, dirty },
            });
        }
    }

    /// Hook: DRAM serviced a request; `queue` is the cycles it waited on
    /// busy bank/bus resources before service began.
    #[inline]
    pub fn dram_request(
        &mut self,
        channel: u32,
        bank: u32,
        row_hit: bool,
        write: bool,
        queue: u64,
    ) {
        self.hot.dram_reads += u64::from(!write);
        self.hot.dram_writes += u64::from(write);
        self.hot.dram_row_hits += u64::from(row_hit);
        self.hot.dram_queue_cycles += queue;
        if self.cfg.trace_events {
            self.ring.push(ObsEvent {
                t: self.now,
                kind: EventKind::Dram {
                    channel,
                    bank,
                    row_hit,
                    write,
                    queue,
                },
            });
        }
    }

    /// Records an arbitrary event (used for sweep-task scheduling, which
    /// bypasses counters and sampling).
    pub fn record(&mut self, ev: ObsEvent) {
        self.ring.push(ev);
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.ring.iter()
    }

    /// Total events recorded (including any later dropped by the ring).
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events lost to ring overflow.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Drains buffered events into `sink` (oldest first).
    pub fn drain_events(&mut self, sink: &mut dyn EventSink) {
        self.ring.drain_to(sink);
    }

    /// Per-set L2 eviction counts (index = statistics set).
    #[must_use]
    pub fn l2_set_evictions(&self) -> &[u64] {
        &self.l2_set_evictions
    }

    /// Converts the hot counters into the named-metric dump embedded in
    /// run reports. Names/units are documented in OBSERVABILITY.md.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        let h = &self.hot;
        let c = |m: &mut Metrics, name: &str, help: &str, v: u64| {
            m.set_counter(name, "refs", help, v);
        };
        c(
            &mut m,
            "cache.l1.accesses",
            "L1 demand accesses",
            h.l1_accesses,
        );
        c(&mut m, "cache.l1.hits", "L1 demand hits", h.l1_hits);
        c(&mut m, "cache.l1.misses", "L1 demand misses", h.l1_misses);
        c(&mut m, "cache.l1.writes", "L1 store accesses", h.l1_writes);
        m.set_counter(
            "cache.l1.evictions",
            "blocks",
            "valid blocks evicted from L1",
            h.l1_evictions,
        );
        m.set_counter(
            "cache.l1.dirty_evictions",
            "blocks",
            "dirty L1 victims written back to L2",
            h.l1_dirty_evictions,
        );
        c(
            &mut m,
            "cache.l2.demand_accesses",
            "L2 demand accesses (L1 misses)",
            h.l2_accesses,
        );
        c(&mut m, "cache.l2.demand_hits", "L2 demand hits", h.l2_hits);
        c(
            &mut m,
            "cache.l2.demand_misses",
            "L2 demand misses",
            h.l2_misses,
        );
        c(
            &mut m,
            "cache.l2.demand_writes",
            "L2 demand stores",
            h.l2_writes,
        );
        m.set_counter(
            "cache.l2.evictions",
            "blocks",
            "valid blocks evicted from L2",
            h.l2_evictions,
        );
        m.set_counter(
            "cache.l2.dirty_evictions",
            "blocks",
            "dirty L2 victims written back to memory",
            h.l2_dirty_evictions,
        );
        m.set_counter("dram.reads", "requests", "DRAM read requests", h.dram_reads);
        m.set_counter(
            "dram.writes",
            "requests",
            "DRAM write requests",
            h.dram_writes,
        );
        m.set_counter(
            "dram.row_hits",
            "requests",
            "DRAM requests hitting the open row",
            h.dram_row_hits,
        );
        m.set_counter(
            "dram.row_misses",
            "requests",
            "DRAM requests missing the open row",
            (h.dram_reads + h.dram_writes).saturating_sub(h.dram_row_hits),
        );
        m.set_counter(
            "dram.queue_cycles",
            "cycles",
            "total cycles DRAM requests queued on busy banks/buses",
            h.dram_queue_cycles,
        );
        let total_dram = h.dram_reads + h.dram_writes;
        if total_dram > 0 {
            #[allow(clippy::cast_precision_loss)]
            m.set_gauge(
                "dram.row_hit_rate",
                "fraction",
                "row-buffer hit rate",
                h.dram_row_hits as f64 / total_dram as f64,
            );
        }
        if !self.l2_set_evictions.is_empty() {
            let mut hist = Histogram::new(vec![0, 1, 4, 16, 64, 256, 1024, 4096]);
            for &n in &self.l2_set_evictions {
                hist.observe(n);
            }
            m.set_histogram(
                "cache.l2.evictions_per_set",
                "evictions",
                "distribution of eviction counts across L2 sets",
                hist,
            );
        }
        m.set_counter(
            "trace.events_recorded",
            "events",
            "events recorded into the ring buffer",
            self.events_recorded(),
        );
        m.set_counter(
            "trace.events_dropped",
            "events",
            "events dropped by ring overflow",
            self.events_dropped(),
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MemorySink;

    #[test]
    fn counters_are_exact_regardless_of_sampling() {
        let mut r = Recorder::new(ObsConfig {
            sample_every: 10,
            trace_events: true,
            ..ObsConfig::default()
        });
        for i in 0..100u32 {
            r.cache_access(Level::L2, i % 8, i % 3 == 0, false);
        }
        assert_eq!(r.hot.l2_accesses, 100);
        assert_eq!(r.hot.l2_hits, 34);
        assert_eq!(r.hot.l2_misses, 66);
        // Sampling thinned events 10:1.
        assert_eq!(r.events_recorded(), 10);
    }

    #[test]
    fn evictions_feed_the_per_set_histogram() {
        let mut r = Recorder::new(ObsConfig::default());
        r.eviction(Level::L2, 3, true);
        r.eviction(Level::L2, 3, false);
        r.eviction(Level::L1, 1, true);
        assert_eq!(r.hot.l2_evictions, 2);
        assert_eq!(r.hot.l2_dirty_evictions, 1);
        assert_eq!(r.hot.l1_dirty_evictions, 1);
        assert_eq!(r.l2_set_evictions(), &[0, 0, 0, 2]);
        let m = r.metrics();
        let h = m.histogram("cache.l2.evictions_per_set").unwrap();
        assert_eq!(h.count(), 4); // sets 0..=3
        assert_eq!(h.sum(), 2);
    }

    #[test]
    fn events_carry_the_sim_clock() {
        let mut r = Recorder::new(ObsConfig {
            trace_events: true,
            ..ObsConfig::default()
        });
        r.set_now(41);
        r.dram_request(0, 5, true, false, 7);
        let mut sink = MemorySink::default();
        r.drain_events(&mut sink);
        assert_eq!(sink.events[0].t, 41);
        assert_eq!(r.hot.dram_reads, 1);
        assert_eq!(r.hot.dram_queue_cycles, 7);
    }

    #[test]
    fn tracing_off_records_no_events_but_counts() {
        let mut r = Recorder::new(ObsConfig::default());
        r.cache_access(Level::L1, 0, true, true);
        assert_eq!(r.events_recorded(), 0);
        assert_eq!(r.hot.l1_writes, 1);
        let m = r.metrics();
        assert_eq!(m.counter("cache.l1.accesses"), Some(1));
        assert_eq!(m.counter("trace.events_dropped"), Some(0));
    }
}
