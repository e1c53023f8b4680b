//! Streaming trace delivery: run a generator on its own thread and pull
//! events through a bounded channel.
//!
//! The paper's evaluation runs hundreds of millions of references per
//! cell; materializing such traces as `Vec<Event>` makes peak memory
//! linear in trace length and forces regeneration per scheme. An
//! [`EventStream`] instead keeps at most a few chunks in flight
//! (`STREAM_CHUNK` events × channel depth), so peak memory is O(1) in
//! `target_refs`, and generation overlaps with simulation on multicore
//! hosts.
//!
//! The chunk protocol itself lives in
//! [`primecache_conc::port::stream`], instantiated here with the
//! production [`StdBackend`]; the *same source* instantiated with the
//! model backend is verified schedule-exhaustively (`pcache
//! conc-check`): delivery order is schedule-invariant, the `chunks`
//! counter is exact, and early drop always unwinds and joins the
//! generator.
//!
//! Determinism is preserved exactly: the generator emits the same
//! sequence whether it writes to a buffer or a channel, which the
//! `streaming` integration test asserts event-for-event for all 23
//! workloads.

use primecache_conc::port::stream::ChunkStream;
use primecache_conc::StdBackend;
use primecache_trace::Event;

use crate::util::{TraceSink, STREAM_CHUNK};

/// Default bounded chunk slots in flight between generator and consumer.
/// With `STREAM_CHUNK` events per slot this caps buffered events at
/// `CHANNEL_DEPTH * STREAM_CHUNK` regardless of trace length.
const CHANNEL_DEPTH: usize = 4;

/// A lazily generated, O(1)-memory trace: `Iterator<Item = Event>`.
///
/// Produced by [`crate::Workload::events`]. The generator runs on a
/// dedicated thread and is torn down promptly when the stream is dropped
/// early: the hangup surfaces as a failed chunk send, which flips the
/// sink's `done()` flag and unwinds the generator loop; dropping the
/// stream joins the generator thread before returning.
#[derive(Debug)]
pub struct EventStream {
    inner: ChunkStream<StdBackend, Event>,
}

impl EventStream {
    /// Spawns `generator` with a channel-backed [`TraceSink`] targeting
    /// `target_refs` memory references, with default channel depth and
    /// chunk size.
    pub(crate) fn spawn(generator: fn(&mut TraceSink), target_refs: u64) -> Self {
        Self::spawn_with(generator, target_refs, CHANNEL_DEPTH, STREAM_CHUNK)
    }

    /// [`EventStream::spawn`] with explicit channel `depth` (chunk slots
    /// in flight) and `chunk_events` (events per chunk). Peak buffered
    /// memory is proportional to `depth * chunk_events`.
    ///
    /// # Panics
    ///
    /// Panics when `depth` or `chunk_events` is zero.
    pub(crate) fn spawn_with(
        generator: fn(&mut TraceSink),
        target_refs: u64,
        depth: usize,
        chunk_events: usize,
    ) -> Self {
        Self {
            inner: ChunkStream::spawn("trace-gen", depth, chunk_events, move |sink| {
                let mut trace = TraceSink::for_channel(target_refs, sink);
                generator(&mut trace);
                trace.finish();
            }),
        }
    }

    /// Back-pressure counters: `(chunks, blocked_waits)` — chunks pulled
    /// from the generator, and how many of those pulls found the channel
    /// empty and had to block. A high ratio means the consumer outruns
    /// the generator; zero blocked waits means generation fully overlaps
    /// with simulation.
    #[must_use]
    pub fn stream_stats(&self) -> (u64, u64) {
        self.inner.stats()
    }

    /// The stream's buffering configuration: `(depth, chunk_events)`.
    /// Peak buffered events is their product.
    #[must_use]
    pub fn stream_config(&self) -> (usize, usize) {
        self.inner.config()
    }

    /// Next whole chunk of events (at most `chunk_events` long), or
    /// `None` once the generator is exhausted.
    ///
    /// Order-compatible with the `Iterator` view: the concatenation of
    /// chunks (interleaved with any `next()` pulls) is exactly the
    /// generated event sequence.
    pub fn next_chunk(&mut self) -> Option<Vec<Event>> {
        self.inner.next_chunk()
    }
}

impl Iterator for EventStream {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        self.inner.next_item()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::*;

    fn counting(t: &mut TraceSink) {
        let mut i = 0u64;
        while !t.done() {
            t.load(i * 64);
            if i.is_multiple_of(7) {
                t.work(3);
            }
            i += 1;
        }
    }

    #[test]
    fn stream_matches_materialized() {
        let streamed: Vec<Event> = EventStream::spawn(counting, 10_000).collect();
        let buffered = crate::util::materialize(counting, 10_000);
        assert_eq!(streamed, buffered);
    }

    #[test]
    fn depth_one_stream_matches_materialized() {
        // The tightest possible channel (one chunk slot, tiny chunks)
        // maximizes producer/consumer lockstep; delivery must still be
        // byte-identical to the buffered path.
        let streamed: Vec<Event> = EventStream::spawn_with(counting, 10_000, 1, 64).collect();
        let buffered = crate::util::materialize(counting, 10_000);
        assert_eq!(streamed, buffered);
    }

    #[test]
    fn early_drop_terminates_generator() {
        // Target far beyond what the consumer reads; Drop must still
        // return promptly (the generator unwinds on the failed send).
        let mut stream = EventStream::spawn(counting, u64::MAX >> 8);
        for _ in 0..10 * STREAM_CHUNK {
            assert!(stream.next().is_some());
        }
        drop(stream); // must not hang
    }

    static COUNTING_FLAGGED_RETURNED: AtomicBool = AtomicBool::new(false);

    fn counting_flagged(t: &mut TraceSink) {
        counting(t);
        COUNTING_FLAGGED_RETURNED.store(true, Ordering::SeqCst);
    }

    #[test]
    fn early_drop_joins_generator_thread() {
        // Drop mid-chunk (fewer events consumed than one chunk holds):
        // by the time drop() returns, the generator must have observed
        // the hangup, unwound its loop normally (no panic propagation)
        // and had its thread joined — the flag write is the generator's
        // last statement, so seeing it proves the join was real.
        let mut stream = EventStream::spawn(counting_flagged, u64::MAX >> 8);
        for _ in 0..STREAM_CHUNK / 2 {
            assert!(stream.next().is_some());
        }
        drop(stream);
        assert!(
            COUNTING_FLAGGED_RETURNED.load(Ordering::SeqCst),
            "drop returned before the generator thread finished"
        );
    }

    #[test]
    fn empty_target_yields_empty_stream() {
        let events: Vec<Event> = EventStream::spawn(counting, 0).collect();
        assert!(events.is_empty());
    }

    #[test]
    fn chunked_pull_matches_materialized() {
        let mut stream = EventStream::spawn(counting, 10_000);
        let mut chunked = Vec::new();
        while let Some(chunk) = stream.next_chunk() {
            assert!(!chunk.is_empty());
            assert!(chunk.len() <= STREAM_CHUNK);
            chunked.extend(chunk);
        }
        assert!(stream.next_chunk().is_none(), "stream stays exhausted");
        let buffered = crate::util::materialize(counting, 10_000);
        assert_eq!(chunked, buffered);
    }

    #[test]
    fn interleaved_item_and_chunk_pulls_preserve_order() {
        // Pull a few items, then a chunk (which must return the rest of
        // the partially consumed chunk first), then drain: concatenation
        // must equal the buffered sequence.
        // > STREAM_CHUNK refs so the trace spans several chunks.
        let target = 3 * STREAM_CHUNK as u64;
        let mut stream = EventStream::spawn(counting, target);
        let mut got = Vec::new();
        for _ in 0..7 {
            got.push(stream.next().unwrap());
        }
        got.extend(stream.next_chunk().unwrap());
        got.push(stream.next().unwrap());
        while let Some(chunk) = stream.next_chunk() {
            got.extend(chunk);
        }
        let buffered = crate::util::materialize(counting, target);
        assert_eq!(got, buffered);
    }

    #[test]
    fn stream_stats_count_chunks() {
        let mut stream = EventStream::spawn(counting, 10_000);
        let n = stream.by_ref().count() as u64;
        assert!(n >= 10_000);
        let (chunks, blocked) = stream.stream_stats();
        assert_eq!(chunks, n.div_ceil(STREAM_CHUNK as u64));
        assert!(blocked <= chunks);
    }
}
