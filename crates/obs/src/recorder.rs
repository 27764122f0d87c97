//! The span ring: the one bounded buffer of recently finished spans, read
//! by the snapshot, the flight recorder and the append-only JSONL flush.
//! A finished span goes into its thread's home shard, a fixed-capacity FIFO,
//! so a full shard evicts a span its thread usually allocated (freeing
//! another thread's spans waits on that thread's malloc arena lock, DESIGN.md
//! §7). Each shard counts the spans it took and evicted under its lock, so
//! `recorded - dropped` is always the number of spans held.

use crate::span::SpanRecord;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Spans the ring holds at most, about 44 MB at 0.7 KB per span. A shard
/// holds twice the spans of the longest traced benchmark run at
/// `--seconds 2`, even when one thread records them all.
pub(crate) const SPAN_RING_CAPACITY: usize = 65_536;

/// Independent shards of the ring.
const SHARDS: usize = 4;

/// Home shards handed out so far, process-wide.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home shard, handed out to threads in turn.
    static HOME: Cell<usize> = Cell::new(NEXT_HOME.fetch_add(1, Ordering::Relaxed) % SHARDS);
}

/// Per-shard sequence numbers a reader has already seen.
pub(crate) type Cursor = [u64; SHARDS];

#[derive(Default)]
struct Shard {
    spans: VecDeque<SpanRecord>,
    /// Spans ever taken; the newest held span has sequence `recorded - 1`.
    recorded: u64,
    /// Spans evicted; the oldest held span has sequence `dropped`.
    dropped: u64,
}

/// One pass over the ring: the held spans the reader had not seen, sorted
/// by `(start_ns, id)` so parents precede children, and the counts so far.
#[derive(Default)]
pub(crate) struct RingRead {
    pub spans: Vec<SpanRecord>,
    pub recorded: u64,
    pub dropped: u64,
}

/// A bounded, sharded buffer of the most recent finished spans.
pub(crate) struct SpanRing {
    shards: [Mutex<Shard>; SHARDS],
    shard_capacity: usize,
}

impl SpanRing {
    /// A ring of `capacity` spans; the product uses [`SPAN_RING_CAPACITY`].
    pub(crate) fn new(capacity: usize) -> Self {
        SpanRing {
            shards: Default::default(),
            shard_capacity: (capacity / SHARDS).max(1),
        }
    }

    fn shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        self.shards[index].lock().expect("span ring lock")
    }

    /// Take one finished span into the calling thread's home shard,
    /// evicting that shard's oldest when full.
    pub(crate) fn record(&self, span: SpanRecord) {
        let mut shard = self.shard(HOME.get());
        if shard.spans.len() == self.shard_capacity {
            shard.spans.pop_front();
            shard.dropped += 1;
        }
        shard.spans.push_back(span);
        shard.recorded += 1;
    }

    /// Every held span newer than `cursor`, which advances past them.
    /// A zeroed cursor reads everything the ring holds.
    pub(crate) fn read(&self, cursor: &mut Cursor) -> RingRead {
        let mut read = RingRead::default();
        for (index, seen) in cursor.iter_mut().enumerate() {
            let shard = self.shard(index);
            let skip = seen.saturating_sub(shard.dropped) as usize;
            read.spans.extend(shard.spans.iter().skip(skip).cloned());
            *seen = shard.recorded;
            read.recorded += shard.recorded;
            read.dropped += shard.dropped;
        }
        read.spans.sort_by_key(|s| (s.start_ns, s.id));
        read
    }

    /// The held spans of `root`'s trace that descend from it, `root`
    /// included, sorted by `(start_ns, id)`. A descendant nests inside the
    /// root's interval, so only spans of the trace within it are cloned and
    /// walked; one pass over the ring, one shard lock at a time.
    pub(crate) fn subtree(&self, root: &SpanRecord) -> Vec<SpanRecord> {
        let within = |s: &&SpanRecord| {
            s.trace == root.trace && root.start_ns <= s.start_ns && s.end_ns <= root.end_ns
        };
        let mut spans = Vec::new();
        for index in 0..SHARDS {
            spans.extend(self.shard(index).spans.iter().filter(within).cloned());
        }
        let parent_of: HashMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
        spans.retain(|span| {
            let mut cursor = Some(span.id);
            // More hops than spans means a malformed parent cycle.
            for _ in 0..=parent_of.len() {
                match cursor {
                    Some(id) if id == root.id => return true,
                    Some(id) => cursor = parent_of.get(&id).copied().flatten(),
                    None => return false,
                }
            }
            false
        });
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceId;

    fn rec(id: u64, start: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            trace: None,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: start + 1,
            error: None,
            attrs: Vec::new(),
        }
    }

    fn everything(ring: &SpanRing) -> RingRead {
        ring.read(&mut Cursor::default())
    }

    #[test]
    fn read_is_sorted_and_complete() {
        let ring = SpanRing::new(SPAN_RING_CAPACITY);
        assert!(everything(&ring).spans.is_empty());
        for id in (1..=40).rev() {
            ring.record(rec(id, 1000 - id));
        }
        let read = everything(&ring);
        assert_eq!((read.spans.len(), read.recorded, read.dropped), (40, 40, 0));
        assert!(read
            .spans
            .windows(2)
            .all(|w| (w[0].start_ns, w[0].id) <= (w[1].start_ns, w[1].id)));
    }

    #[test]
    fn a_million_spans_from_four_threads_leave_exactly_the_capacity() {
        let ring = SpanRing::new(10_000);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = &ring;
                scope.spawn(move || {
                    // One thread per shard, whatever homes other tests took.
                    HOME.set(t as usize);
                    for i in 0..250_000u64 {
                        ring.record(rec(t * 250_000 + i + 1, i));
                    }
                });
            }
        });
        let read = everything(&ring);
        assert_eq!(read.spans.len(), 10_000);
        assert_eq!(read.recorded, 1_000_000);
        assert_eq!(read.recorded - read.dropped, read.spans.len() as u64);
        // Each thread's home shard kept that thread's newest spans.
        assert!(read.spans.iter().all(|s| s.start_ns >= 250_000 - 10_000));
    }

    #[test]
    fn a_cursor_reads_each_span_once_even_across_evictions() {
        let ring = SpanRing::new(SHARDS * 4);
        let mut cursor = Cursor::default();
        let (mut next_id, mut read_ids) = (1u64, Vec::new());
        // Rounds of 1..=5 new spans into this thread's 4-span home shard:
        // evictions hit only spans already read until the last round,
        // which loses one unread span.
        for round in 1..=5u64 {
            for _ in 0..round {
                ring.record(rec(next_id, next_id));
                next_id += 1;
            }
            let read = ring.read(&mut cursor);
            assert_eq!(
                read.recorded - read.dropped,
                everything(&ring).spans.len() as u64
            );
            read_ids.extend(read.spans.iter().map(|s| s.id));
        }
        assert!(ring.read(&mut cursor).spans.is_empty());
        let total = next_id - 1;
        assert_eq!(everything(&ring).recorded, total);
        assert_eq!(read_ids.len() as u64, total - 1);
        read_ids.sort_unstable();
        read_ids.dedup();
        assert_eq!(read_ids.len() as u64, total - 1, "a span read twice");
    }

    #[test]
    fn a_capture_holds_only_its_own_call_of_a_shared_session_trace() {
        let ring = SpanRing::new(SPAN_RING_CAPACITY);
        let (session, other) = (TraceId::from_u128(11), TraceId::from_u128(12));
        let span = |id, parent, trace, start, end| SpanRecord {
            parent: Some(parent),
            trace,
            end_ns: end,
            ..rec(id, start)
        };
        // 1 000 calls under one open session span (id 1): each a call span
        // with a tool child and a statement grandchild.
        let call = |k: u64| {
            let (id, t) = (10 * k + 10, 100 * k + 100);
            [
                span(id + 2, id + 1, session, t + 2, t + 8),
                span(id + 1, id, session, t + 1, t + 9),
                span(id, 1, session, t, t + 10),
            ]
        };
        let [statement, tool, root] = call(500);
        // Inside that call's interval: a sibling call of the session, and a
        // child that carries another trace.
        let t = root.start_ns;
        ring.record(span(5, 1, session, t + 3, t + 4));
        ring.record(span(6, root.id, other, t + 3, t + 4));
        for k in 0..1_000 {
            call(k).into_iter().for_each(|s| ring.record(s));
        }
        assert_eq!(ring.subtree(&root), [root, tool, statement]);
    }
}
