//! The chunked streaming protocol: a producer thread pushes items
//! through a bounded channel of fixed-size chunks; the consumer pulls
//! items one at a time.
//!
//! This is the protocol behind `primecache-workloads::EventStream`.
//! Verified properties (see `crates/conc/tests/model_protocols.rs`):
//!
//! * the delivered item sequence is identical under every schedule,
//! * the `chunks` counter is exactly `ceil(items / chunk_cap)`,
//! * dropping the stream early always unwinds the producer and joins
//!   its thread — no deadlock, no leak, under any interleaving.

use crate::api::{Backend, JoinApi, ReceiverApi, SenderApi, TryRecv};

/// Producer side: accumulates items into fixed-size chunks and sends
/// each full chunk over the bounded channel.
///
/// A failed send (the consumer hung up) flips [`ChunkSink::is_closed`];
/// producers poll it to stop generating into the void.
#[derive(Debug)]
pub struct ChunkSink<B: Backend, T: Send + 'static> {
    chunk: Vec<T>,
    chunk_cap: usize,
    tx: B::Sender<Vec<T>>,
    closed: bool,
}

impl<B: Backend, T: Send + 'static> ChunkSink<B, T> {
    /// Wraps the sending half of a chunk channel.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_cap` is zero.
    #[must_use]
    pub fn new(tx: B::Sender<Vec<T>>, chunk_cap: usize) -> Self {
        assert!(chunk_cap > 0, "chunk capacity must be at least 1");
        Self {
            chunk: Vec::with_capacity(chunk_cap),
            chunk_cap,
            tx,
            closed: false,
        }
    }

    /// True once the consumer has hung up; the producer should stop.
    ///
    /// Note the hangup is only *observed* at a chunk flush — a producer
    /// mid-chunk keeps accumulating until the chunk fills.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Appends one item, flushing the chunk to the consumer when full.
    pub fn push(&mut self, item: T) {
        if self.closed {
            return;
        }
        self.chunk.push(item);
        if self.chunk.len() >= self.chunk_cap {
            let full = std::mem::replace(&mut self.chunk, Vec::with_capacity(self.chunk_cap));
            if self.tx.send(full).is_err() {
                self.closed = true;
            }
        }
    }

    /// Flushes a partially filled final chunk. Call once, when the
    /// producer is done generating.
    pub fn finish(&mut self) {
        if !self.closed && !self.chunk.is_empty() {
            let rest = std::mem::take(&mut self.chunk);
            self.closed = self.tx.send(rest).is_err();
        }
    }
}

/// Consumer side: pulls items one at a time, refilling from the chunk
/// channel, and tracks back-pressure.
///
/// Dropping the stream early drops the receiver *first* (so a blocked
/// producer send fails immediately) and then joins the producer thread.
#[derive(Debug)]
pub struct ChunkStream<B: Backend, T: Send + 'static> {
    rx: Option<B::Receiver<Vec<T>>>,
    chunk: std::vec::IntoIter<T>,
    handle: Option<B::JoinHandle>,
    chunks: u64,
    blocked_waits: u64,
    depth: usize,
    chunk_cap: usize,
}

impl<B: Backend, T: Send + 'static> ChunkStream<B, T> {
    /// Spawns `producer` on its own thread with a [`ChunkSink`] feeding
    /// a bounded channel of `depth` chunk slots, `chunk_cap` items each.
    ///
    /// # Panics
    ///
    /// Panics when `depth` or `chunk_cap` is zero.
    pub fn spawn<F>(name: &str, depth: usize, chunk_cap: usize, producer: F) -> Self
    where
        F: FnOnce(ChunkSink<B, T>) + Send + 'static,
    {
        assert!(depth > 0, "channel depth must be at least 1");
        let (tx, rx) = B::spsc::<Vec<T>>(depth);
        let handle = B::spawn(name, move || producer(ChunkSink::new(tx, chunk_cap)));
        Self {
            rx: Some(rx),
            chunk: Vec::new().into_iter(),
            handle: Some(handle),
            chunks: 0,
            blocked_waits: 0,
            depth,
            chunk_cap,
        }
    }

    /// The stream's buffering configuration: `(depth, chunk_cap)` —
    /// chunk slots in flight and items per chunk. Peak buffered items
    /// is their product.
    #[must_use]
    pub fn config(&self) -> (usize, usize) {
        (self.depth, self.chunk_cap)
    }

    /// Next item, refilling from the channel as chunks drain; `None`
    /// once the producer has finished and every chunk is consumed.
    pub fn next_item(&mut self) -> Option<T> {
        loop {
            if let Some(item) = self.chunk.next() {
                return Some(item);
            }
            self.chunk = self.pull()?.into_iter();
        }
    }

    /// Next whole chunk, preserving item order with [`next_item`]: a
    /// partially consumed current chunk is returned first (its remaining
    /// items), then whole chunks come off the channel. `None` once the
    /// producer has finished and everything is consumed.
    ///
    /// Interleaving `next_chunk` and `next_item` is sound — the
    /// concatenation of everything returned is always the produced item
    /// sequence. Back-pressure accounting matches `next_item`: a pull
    /// that finds the channel empty and then receives a chunk counts one
    /// blocked wait.
    ///
    /// [`next_item`]: ChunkStream::next_item
    pub fn next_chunk(&mut self) -> Option<Vec<T>> {
        let rest: Vec<T> = std::mem::replace(&mut self.chunk, Vec::new().into_iter()).collect();
        if !rest.is_empty() {
            return Some(rest);
        }
        loop {
            let chunk = self.pull()?;
            // Producers only send non-empty chunks, but tolerate an empty
            // one rather than return a confusing `Some(vec![])`.
            if !chunk.is_empty() {
                return Some(chunk);
            }
        }
    }

    /// Receives the next chunk, blocking while the channel is empty;
    /// `None` once the producer has finished and dropped its sender.
    /// Counts each received chunk, and one blocked wait when the chunk
    /// arrived only after the channel was found empty — a wait that
    /// ends in the producer's hang-up delivers nothing and is not
    /// counted, so `blocked_waits <= chunks` always holds.
    fn pull(&mut self) -> Option<Vec<T>> {
        let rx = self.rx.as_ref()?;
        // Non-blocking receive first, purely to observe back-pressure:
        // an empty channel here means this pull blocks on the producer.
        let (received, waited) = match rx.try_recv() {
            TryRecv::Item(chunk) => (Some(chunk), false),
            TryRecv::Empty => (rx.recv(), true),
            TryRecv::Disconnected => (None, false),
        };
        let Some(chunk) = received else {
            self.rx = None;
            return None;
        };
        self.chunks += 1;
        self.blocked_waits += u64::from(waited);
        Some(chunk)
    }

    /// Back-pressure counters: `(chunks, blocked_waits)` — chunks pulled
    /// from the producer, and how many of those pulls found the channel
    /// empty and had to block. `blocked_waits <= chunks`.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.chunks, self.blocked_waits)
    }
}

impl<B: Backend, T: Send + 'static> Drop for ChunkStream<B, T> {
    fn drop(&mut self) {
        // Drop the receiver first so any blocked send in the producer
        // fails immediately, then reap the thread.
        self.rx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
