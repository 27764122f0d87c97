//! Counters, latency histograms and sampled gauges, all as series.
//!
//! A series is `(name, labels)`; an unlabeled metric is the series with the
//! empty label set. A name carries either labeled series or one unlabeled
//! series, never both, so [`MetricsSnapshot::counter`] — the sum over a
//! name's series — is the family total and totals are never written
//! separately. Labels must be *low-cardinality* (tool names, user names,
//! outcome classes); never put SQL text, row values, or ids in a label.
//!
//! Each kind lives in one `SeriesMap`: families by name behind an `RwLock`,
//! so bumping an existing series takes a read lock, a lookup that allocates
//! nothing, and an atomic add. A gauge is a *sampler callback* evaluated at
//! snapshot time, so point-in-time values (queue depth, retained MVCC
//! versions, WAL backlog) are read live instead of being pushed on every
//! change.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A label set: `(key, value)` pairs sorted by key.
pub(crate) type LabelSet = Vec<(String, String)>;

/// Upper bounds (inclusive, nanoseconds) of the latency histogram buckets:
/// log-linear, two per power of two (`2^k`, `1.5·2^k`) from 512 ns to
/// 2^34 ns ≈ 17.2 s, so adjacent bounds differ by at most 1.5×. A final
/// open-ended bucket catches everything above the last bound, for
/// [`BUCKET_COUNT`] buckets total.
pub(crate) const LATENCY_BOUNDS_NS: [u64; 51] = latency_bounds();

/// Number of histogram buckets (`LATENCY_BOUNDS_NS` plus the overflow bucket).
pub(crate) const BUCKET_COUNT: usize = LATENCY_BOUNDS_NS.len() + 1;

const fn latency_bounds() -> [u64; 51] {
    let mut bounds = [0; 51];
    let mut i = 0;
    while i < bounds.len() {
        bounds[i] = if i % 2 == 0 {
            1 << (9 + i / 2)
        } else {
            3 << (8 + i / 2)
        };
        i += 1;
    }
    bounds
}

/// The bucket holding `ns`, from its bit length instead of a scan. Bounds
/// are inclusive, so index by `ns - 1`: its bit length names the power of
/// two, and the bit below the top one says which half of it.
fn bucket_of(ns: u64) -> usize {
    let v = ns.saturating_sub(1);
    let len = (u64::BITS - v.leading_zeros()) as usize;
    if len < 10 {
        return 0; // ns <= 512
    }
    let half = ((v >> (len - 2)) & 1) as usize;
    (2 * (len - 10) + 1 + half).min(BUCKET_COUNT - 1)
}

/// A fixed-bucket latency histogram with atomic counters.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// An immutable copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values in nanoseconds.
    pub(crate) sum_ns: u64,
    /// Per-bucket counts, aligned with `LATENCY_BOUNDS_NS` plus one
    /// overflow bucket at the end.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// containing that rank, so at most 1.5× the exact value; the overflow
    /// bucket reports the last bound.
    pub(crate) fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let last = LATENCY_BOUNDS_NS[LATENCY_BOUNDS_NS.len() - 1];
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return LATENCY_BOUNDS_NS.get(idx).copied().unwrap_or(last);
            }
        }
        last
    }
}

/// A registered gauge: a sampler callback evaluated at snapshot time.
type Sampler = Arc<dyn Fn() -> f64 + Send + Sync>;

/// One series in a snapshot: a counter's `u64`, a histogram's
/// [`HistogramSnapshot`] or a gauge's sampled `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<V> {
    /// Metric name.
    pub name: String,
    /// Label set, sorted by key; empty for an unlabeled metric.
    pub labels: LabelSet,
    /// Current value.
    pub value: V,
}

/// Whether the stored set holds exactly `labels`, in any order.
fn same_labels(set: &LabelSet, labels: &[(&str, &str)]) -> bool {
    set.len() == labels.len()
        && labels
            .iter()
            .all(|(k, v)| set.iter().any(|(sk, sv)| sk == k && sv == v))
}

/// Order-insensitive hash of a label set: the sum of per-pair FNV-1a
/// hashes, so a lookup can skip most series without comparing strings.
fn label_hash(labels: &[(&str, &str)]) -> u64 {
    labels
        .iter()
        .map(|(k, v)| {
            // 0xff never occurs in UTF-8, so it separates key from value.
            k.bytes()
                .chain([0xff])
                .chain(v.bytes())
                .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                })
        })
        .fold(0, u64::wrapping_add)
}

struct Slot<T> {
    hash: u64,
    labels: LabelSet,
    value: T,
}

impl<T> Slot<T> {
    fn new(hash: u64, labels: &[(&str, &str)], value: T) -> Self {
        let mut set: LabelSet = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        set.sort();
        Slot {
            hash,
            labels: set,
            value,
        }
    }

    fn is(&self, hash: u64, labels: &[(&str, &str)]) -> bool {
        self.hash == hash && same_labels(&self.labels, labels)
    }
}

/// Every series of one kind, in families by name.
struct SeriesMap<T> {
    families: RwLock<BTreeMap<String, Vec<Slot<T>>>>,
}

impl<T> Default for SeriesMap<T> {
    fn default() -> Self {
        SeriesMap {
            families: RwLock::default(),
        }
    }
}

impl<T> SeriesMap<T> {
    /// Run `f` on the series `(name, labels)`, creating it first when
    /// absent. An existing series is found under the read lock without
    /// allocating.
    fn with<R>(&self, name: &str, labels: &[(&str, &str)], f: impl FnOnce(&T) -> R) -> R
    where
        T: Default,
    {
        let hash = label_hash(labels);
        {
            let families = self.families.read().expect("metrics lock");
            let slot = families
                .get(name)
                .and_then(|family| family.iter().find(|s| s.is(hash, labels)));
            if let Some(slot) = slot {
                return f(&slot.value);
            }
        }
        let mut families = self.families.write().expect("metrics lock");
        let family = families.entry(name.to_owned()).or_default();
        let idx = match family.iter().position(|s| s.is(hash, labels)) {
            Some(idx) => idx,
            None => {
                family.push(Slot::new(hash, labels, T::default()));
                family.len() - 1
            }
        };
        f(&family[idx].value)
    }

    /// Insert the series `(name, labels)`, replacing its value if present.
    fn insert(&self, name: &str, labels: &[(&str, &str)], value: T) {
        let hash = label_hash(labels);
        let mut families = self.families.write().expect("metrics lock");
        let family = families.entry(name.to_owned()).or_default();
        match family.iter_mut().find(|s| s.is(hash, labels)) {
            Some(slot) => slot.value = value,
            None => family.push(Slot::new(hash, labels, value)),
        }
    }

    /// Every series, sorted by `(name, labels)`, with `read` applied to
    /// its value under the read lock.
    fn read<V>(&self, read: impl Fn(&T) -> V) -> Vec<Sample<V>> {
        let families = self.families.read().expect("metrics lock");
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            let start = out.len();
            out.extend(family.iter().map(|slot| Sample {
                name: name.clone(),
                labels: slot.labels.clone(),
                value: read(&slot.value),
            }));
            out[start..].sort_by(|a, b| a.labels.cmp(&b.labels));
        }
        out
    }
}

/// A concurrent registry of counter, histogram and gauge series.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: SeriesMap<AtomicU64>,
    histograms: SeriesMap<Histogram>,
    gauges: SeriesMap<Sampler>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to the unlabeled counter `name`.
    pub fn incr(&self, name: &str, by: u64) {
        self.incr_with(name, &[], by);
    }

    /// Add `by` to the counter series `(name, labels)`.
    pub fn incr_with(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.counters.with(name, labels, |c| {
            c.fetch_add(by, Ordering::Relaxed);
        });
    }

    /// Record one latency observation in the unlabeled histogram `name`.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        self.observe_ns_with(name, &[], ns);
    }

    /// Record one latency observation in the histogram series
    /// `(name, labels)`.
    pub fn observe_ns_with(&self, name: &str, labels: &[(&str, &str)], ns: u64) {
        self.histograms.with(name, labels, |h| h.observe_ns(ns));
    }

    /// Register the gauge series `(name, labels)`. Registering the same
    /// series again replaces its sampler, so a surface rebuilt per session
    /// keeps one series. The callback is evaluated on every snapshot; it
    /// must be cheap and must not register gauges. A sampler returning a
    /// non-finite value (`NaN` is the idiom for samplers holding `Weak`
    /// references) is omitted from the snapshot.
    pub fn register_gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        sampler: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.gauges.insert(name, labels, Arc::new(sampler));
    }

    /// A point-in-time copy of every series. Samplers run *outside* the
    /// registry lock: they may read other subsystems that themselves
    /// record metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let gauges = self
            .gauges
            .read(Arc::clone)
            .into_iter()
            .map(|g| Sample {
                value: (g.value)(),
                name: g.name,
                labels: g.labels,
            })
            .filter(|g| g.value.is_finite())
            .collect();
        MetricsSnapshot {
            labeled_counters: self.counters.read(|c| c.load(Ordering::Relaxed)),
            labeled_histograms: self.histograms.read(Histogram::snapshot),
            gauges,
        }
    }
}

/// Point-in-time copy of a [`MetricsRegistry`], gauges sampled at snapshot
/// time. Every vector is sorted by `(name, labels)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Every counter series; an unlabeled counter has an empty label set.
    pub labeled_counters: Vec<Sample<u64>>,
    /// Every histogram series; an unlabeled histogram has an empty label set.
    pub labeled_histograms: Vec<Sample<HistogramSnapshot>>,
    /// Gauge samples taken when the snapshot was produced.
    pub gauges: Vec<Sample<f64>>,
}

fn find<'a, V>(series: &'a [Sample<V>], name: &str, labels: &[(&str, &str)]) -> Option<&'a V> {
    series
        .iter()
        .find(|s| s.name == name && same_labels(&s.labels, labels))
        .map(|s| &s.value)
}

impl MetricsSnapshot {
    /// Total of counter `name` over all its series, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.labeled_counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Value of the counter series `(name, labels)`, 0 when absent.
    pub fn labeled_counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        find(&self.labeled_counters, name, labels)
            .copied()
            .unwrap_or(0)
    }

    /// The histogram series `(name, labels)`, `None` when absent.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        find(&self.labeled_histograms, name, labels)
    }

    /// Sampled value of the gauge series `(name, labels)`, `None` when
    /// absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        find(&self.gauges, name, labels).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.incr("a", 1);
        m.incr("a", 2);
        m.incr("b", 5);
        let snap = m.snapshot();
        assert_eq!(snap.counter("a"), 3);
        assert_eq!(snap.counter("b"), 5);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn bounds_are_log_linear_within_one_and_a_half() {
        assert_eq!(LATENCY_BOUNDS_NS[0], 512);
        assert!(LATENCY_BOUNDS_NS[0] <= 1_000);
        assert!(LATENCY_BOUNDS_NS[LATENCY_BOUNDS_NS.len() - 1] >= 10_000_000_000);
        for pair in LATENCY_BOUNDS_NS.windows(2) {
            assert!(pair[1] > pair[0]);
            assert!(pair[1] * 2 <= pair[0] * 3, "{pair:?}");
        }
    }

    #[test]
    fn bucket_index_agrees_with_a_linear_scan() {
        let linear = |ns: u64| {
            LATENCY_BOUNDS_NS
                .iter()
                .position(|&bound| ns <= bound)
                .unwrap_or(BUCKET_COUNT - 1)
        };
        let mut probes = vec![0, 1, u64::MAX];
        for &bound in &LATENCY_BOUNDS_NS {
            probes.extend([bound - 1, bound, bound + 1]);
        }
        for ns in probes {
            assert_eq!(bucket_of(ns), linear(ns), "ns = {ns}");
        }
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::default();
        h.observe_ns(500); // <= 512ns bucket
        h.observe_ns(512); // boundary: still the first bucket
        h.observe_ns(7_000_000); // some middle bucket
        h.observe_ns(20_000_000_000); // overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_ns, 500 + 512 + 7_000_000 + 20_000_000_000);
        assert_eq!(snap.buckets.len(), BUCKET_COUNT);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[BUCKET_COUNT - 1], 1);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4);
        assert_eq!(snap.mean_ns(), snap.sum_ns / 4);
    }

    #[test]
    fn quantiles_are_within_one_and_a_half_of_exact() {
        // Latencies spread log-uniformly from 1µs to 1s.
        let mut sample: Vec<u64> = (0..600)
            .map(|i| (1_000.0 * 10f64.powf(i as f64 / 100.0)) as u64)
            .collect();
        let h = Histogram::default();
        for &ns in &sample {
            h.observe_ns(ns);
        }
        sample.sort_unstable();
        let snap = h.snapshot();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let rank = ((q * sample.len() as f64).ceil() as usize).max(1);
            let exact = sample[rank - 1] as f64;
            let approx = snap.quantile_ns(q) as f64;
            assert!(
                approx >= exact && approx <= 1.5 * exact,
                "q{q}: {approx} vs exact {exact}"
            );
        }
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile_ns(0.5), 0);
        assert_eq!(empty.mean_ns(), 0);
    }

    #[test]
    fn labeled_series_are_order_insensitive_and_independent() {
        let m = MetricsRegistry::new();
        m.incr_with("tool.calls", &[("tool", "select"), ("outcome", "ok")], 2);
        // Same series, labels given in the other order.
        m.incr_with("tool.calls", &[("outcome", "ok"), ("tool", "select")], 1);
        m.incr_with(
            "tool.calls",
            &[("tool", "select"), ("outcome", "denied")],
            5,
        );
        let snap = m.snapshot();
        assert_eq!(
            snap.labeled_counter("tool.calls", &[("tool", "select"), ("outcome", "ok")]),
            3
        );
        assert_eq!(
            snap.labeled_counter("tool.calls", &[("tool", "select"), ("outcome", "denied")]),
            5
        );
        assert_eq!(snap.labeled_counter("tool.calls", &[("tool", "insert")]), 0);
        // The family total sums the series.
        assert_eq!(snap.counter("tool.calls"), 8);
        // Stored label sets are sorted by key.
        assert_eq!(
            snap.labeled_counters[0].labels,
            [
                ("outcome".to_owned(), "denied".to_owned()),
                ("tool".to_owned(), "select".to_owned())
            ]
        );
        m.observe_ns_with("tool.latency", &[("tool", "select")], 2_000);
        let snap = m.snapshot();
        assert_eq!(snap.labeled_histograms.len(), 1);
        assert_eq!(
            snap.histogram("tool.latency", &[("tool", "select")])
                .map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn gauges_sample_live_and_reregistration_replaces() {
        let m = MetricsRegistry::new();
        let value = Arc::new(AtomicU64::new(7));
        let v = Arc::clone(&value);
        let wire = [("pool", "wire")];
        m.register_gauge("queue.depth", &wire, move || {
            v.load(Ordering::Relaxed) as f64
        });
        assert_eq!(m.snapshot().gauge("queue.depth", &wire), Some(7.0));
        value.store(11, Ordering::Relaxed);
        assert_eq!(m.snapshot().gauge("queue.depth", &wire), Some(11.0));
        // Same series identity: replaced, not duplicated.
        let (alice, bob) = ([("user", "alice")], [("user", "bob")]);
        m.register_gauge("cache.entries", &alice, || 3.0);
        m.register_gauge("cache.entries", &alice, || 9.0);
        m.register_gauge("cache.entries", &bob, || 1.0);
        let snap = m.snapshot();
        assert_eq!(snap.gauge("cache.entries", &alice), Some(9.0));
        assert_eq!(snap.gauges.len(), 3);
        // NaN samplers (dead Weak idiom) vanish from output.
        m.register_gauge("cache.entries", &bob, || f64::NAN);
        assert_eq!(m.snapshot().gauge("cache.entries", &bob), None);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let m = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.incr("hits", 1);
                        m.observe_ns("lat", 2_000);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.counter("hits"), 8000);
        assert_eq!(snap.histogram("lat", &[]).map(|h| h.count), Some(8000));
    }
}
