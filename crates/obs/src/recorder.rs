//! Span sinks: where finished spans go.
//!
//! The default sink is [`ShardedSink`], which spreads contention across
//! several small mutexed vectors keyed by span id — concurrent producer
//! threads closing spans rarely touch the same shard.

use crate::span::SpanRecord;
use std::sync::Mutex;

/// Number of independent shards in a [`ShardedSink`].
pub const SHARD_COUNT: usize = 16;

/// An in-memory span sink sharded by span id to reduce lock contention.
#[derive(Debug)]
pub struct ShardedSink {
    shards: Vec<Mutex<Vec<SpanRecord>>>,
}

impl Default for ShardedSink {
    fn default() -> Self {
        ShardedSink {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }
}

impl ShardedSink {
    /// An empty sink.
    pub fn new() -> Self {
        ShardedSink::default()
    }

    /// Store one finished span.
    pub fn record(&self, span: SpanRecord) {
        let idx = (span.id as usize) % SHARD_COUNT;
        self.shards[idx].lock().expect("sink lock").push(span);
    }

    /// All recorded spans, merged and sorted by `(start_ns, id)` so parents
    /// precede their children deterministically.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().expect("sink lock").iter().cloned());
        }
        out.sort_by_key(|s| (s.start_ns, s.id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let sink = ShardedSink::new();
        assert!(sink.snapshot().is_empty());
        for id in (1..=40).rev() {
            sink.record(rec(id, 1000 - id));
        }
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 40);
        assert!(snap
            .windows(2)
            .all(|w| (w[0].start_ns, w[0].id) <= (w[1].start_ns, w[1].id)));
    }

    #[test]
    fn concurrent_recording_keeps_every_span() {
        let sink = ShardedSink::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let sink = &sink;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        sink.record(rec(t * 100 + i + 1, i));
                    }
                });
            }
        });
        assert_eq!(sink.snapshot().len(), 800);
    }
}
