//! Telemetry-plane integration tests: labeled metrics under concurrency,
//! gauge registration, flight-recorder ring semantics, and a golden test for
//! the Prometheus exposition format.

use obs::flight::SLOW_CALL_CAPACITY;
use obs::metrics::MetricsRegistry;
use obs::{FlightConfig, Obs, ObsConfig};
use std::time::Duration;

#[test]
fn labeled_counters_are_exact_under_concurrency() {
    let obs = Obs::in_memory();
    const THREADS: usize = 8;
    const INCRS: u64 = 1_000;
    let labels: [&[(&str, &str)]; 3] = [
        &[("tool", "select"), ("outcome", "ok")],
        &[("tool", "select"), ("outcome", "denied")],
        &[("tool", "update"), ("outcome", "ok")],
    ];
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let obs = obs.clone();
            s.spawn(move || {
                for i in 0..INCRS {
                    let set = labels[(i % 3) as usize];
                    obs.incr_with("tool.calls", set, 1);
                    obs.observe_ns_with("tool.latency", &[("tool", set[0].1)], 1_000 * i);
                }
            });
        }
    });
    let m = obs.snapshot().metrics;
    // 1000 iterations cycle i%3: 334 hits for remainder 0, 333 for 1 and 2.
    let per_thread = [334, 333, 333];
    for (set, expect) in labels.iter().zip(per_thread) {
        assert_eq!(
            m.labeled_counter("tool.calls", set),
            expect * THREADS as u64,
            "{set:?}"
        );
    }
    // Label order must not matter: lookups are canonicalized.
    assert_eq!(
        m.labeled_counter("tool.calls", &[("outcome", "ok"), ("tool", "select")]),
        334 * THREADS as u64
    );
    // The family total sums every series of the name.
    assert_eq!(m.counter("tool.calls"), THREADS as u64 * INCRS);
    // Histogram counts add up across both tools.
    let total: u64 = m
        .labeled_histograms
        .iter()
        .filter(|h| h.name == "tool.latency")
        .map(|h| h.value.count)
        .sum();
    assert_eq!(total, THREADS as u64 * INCRS);
}

#[test]
fn gauges_register_sample_and_replace() {
    let obs = Obs::in_memory();
    obs.register_gauge("pool.size", &[("kind", "worker")], || 7.0);
    let m = obs.snapshot().metrics;
    assert_eq!(m.gauge("pool.size", &[("kind", "worker")]), Some(7.0));
    // An enabled handle always samples process uptime.
    assert!(m.gauge("process.uptime_seconds", &[]).is_some());

    // Registering the series again replaces the sampler: one series.
    obs.register_gauge("pool.size", &[("kind", "worker")], || 9.0);
    let m = obs.snapshot().metrics;
    let pool: Vec<f64> = m
        .gauges
        .iter()
        .filter(|g| g.name == "pool.size")
        .map(|g| g.value)
        .collect();
    assert_eq!(pool, [9.0]);

    // Disabled handles ignore the whole surface.
    let off = Obs::disabled();
    off.register_gauge("x", &[], || 1.0);
    assert!(off.snapshot().metrics.gauges.is_empty());
    off.incr_with("x", &[("a", "b")], 1);
    assert_eq!(
        off.snapshot().metrics.labeled_counter("x", &[("a", "b")]),
        0
    );
}

#[test]
fn flight_ring_wraps_and_respects_threshold_and_prefixes() {
    let obs = Obs::with_flight(
        &ObsConfig::InMemory,
        FlightConfig::with_threshold_ns(1_000_000), // 1ms
    );
    assert_eq!(obs.flight_threshold_ns(), Some(1_000_000));

    // Two more slow trigger spans than the ring holds: it keeps the newest.
    let slow = SLOW_CALL_CAPACITY + 2;
    for i in 0..slow {
        let span = obs.span(&format!("tool:slow{i}"));
        std::thread::sleep(Duration::from_millis(1));
        drop(span);
    }
    // Fast trigger span: below threshold, not captured.
    drop(obs.span("tool:fast"));
    // Slow non-trigger span: prefix doesn't match, not captured.
    let span = obs.span("db:background");
    std::thread::sleep(Duration::from_millis(3));
    drop(span);

    let calls = obs.slow_calls();
    assert_eq!(
        calls.len(),
        SLOW_CALL_CAPACITY,
        "ring holds exactly its capacity"
    );
    let names: Vec<&str> = calls.iter().map(|c| c.root.name.as_str()).collect();
    assert_eq!(names[0], "tool:slow2");
    assert_eq!(
        names[SLOW_CALL_CAPACITY - 1],
        format!("tool:slow{}", slow - 1)
    );
    for pair in calls.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "captures stay in order");
    }
    assert!(calls.iter().all(|c| c.duration_ns() >= 1_000_000));
    let metrics = obs.snapshot().metrics;
    assert_eq!(
        metrics.counter("obs.slow_calls.captured"),
        slow as u64,
        "wraparound drops entries but the captured counter keeps counting"
    );
    // Ring truncation is never silent: the two captures the full ring
    // pushed out are counted, and occupancy is observable as a gauge.
    assert_eq!(metrics.counter("obs.flight.dropped_total"), 2);
    assert_eq!(
        metrics.gauge("obs.flight.ring_occupancy", &[]),
        Some(SLOW_CALL_CAPACITY as f64)
    );

    // A slow call keeps its full span tree, children included.
    let parent = obs.span("wire:call deep");
    {
        let _child = obs.span("tool:inner");
        std::thread::sleep(Duration::from_millis(3));
    }
    drop(parent);
    let calls = obs.slow_calls();
    let last = calls.last().unwrap();
    assert_eq!(last.root.name, "wire:call deep");
    assert!(
        last.spans.iter().any(|s| s.name == "tool:inner"),
        "{last:?}"
    );
}

#[test]
fn golden_prometheus_exposition() {
    let m = MetricsRegistry::new();
    m.incr("req.count", 2);
    m.incr_with("req.errors", &[("q", "a\"b\\c\nd")], 1);
    m.register_gauge("pool.size", &[], || 3.0);
    m.observe_ns("lat", 500); // first bucket
    m.observe_ns("lat", 20_000_000_000); // overflow bucket

    let text = obs::prom::render(&m.snapshot());
    let expected = "\
# TYPE req_count_total counter
req_count_total 2
# TYPE req_errors_total counter
req_errors_total{q=\"a\\\"b\\\\c\\nd\"} 1
# TYPE pool_size gauge
pool_size 3
# TYPE lat histogram
lat_bucket{le=\"0.000000512\"} 1
lat_bucket{le=\"0.000000768\"} 1
lat_bucket{le=\"0.000001024\"} 1
lat_bucket{le=\"0.000001536\"} 1
lat_bucket{le=\"0.000002048\"} 1
lat_bucket{le=\"0.000003072\"} 1
lat_bucket{le=\"0.000004096\"} 1
lat_bucket{le=\"0.000006144\"} 1
lat_bucket{le=\"0.000008192\"} 1
lat_bucket{le=\"0.000012288\"} 1
lat_bucket{le=\"0.000016384\"} 1
lat_bucket{le=\"0.000024576\"} 1
lat_bucket{le=\"0.000032768\"} 1
lat_bucket{le=\"0.000049152\"} 1
lat_bucket{le=\"0.000065536\"} 1
lat_bucket{le=\"0.000098304\"} 1
lat_bucket{le=\"0.000131072\"} 1
lat_bucket{le=\"0.000196608\"} 1
lat_bucket{le=\"0.000262144\"} 1
lat_bucket{le=\"0.000393216\"} 1
lat_bucket{le=\"0.000524288\"} 1
lat_bucket{le=\"0.000786432\"} 1
lat_bucket{le=\"0.001048576\"} 1
lat_bucket{le=\"0.001572864\"} 1
lat_bucket{le=\"0.002097152\"} 1
lat_bucket{le=\"0.003145728\"} 1
lat_bucket{le=\"0.004194304\"} 1
lat_bucket{le=\"0.006291456\"} 1
lat_bucket{le=\"0.008388608\"} 1
lat_bucket{le=\"0.012582912\"} 1
lat_bucket{le=\"0.016777216\"} 1
lat_bucket{le=\"0.025165824\"} 1
lat_bucket{le=\"0.033554432\"} 1
lat_bucket{le=\"0.050331648\"} 1
lat_bucket{le=\"0.067108864\"} 1
lat_bucket{le=\"0.100663296\"} 1
lat_bucket{le=\"0.134217728\"} 1
lat_bucket{le=\"0.201326592\"} 1
lat_bucket{le=\"0.268435456\"} 1
lat_bucket{le=\"0.402653184\"} 1
lat_bucket{le=\"0.536870912\"} 1
lat_bucket{le=\"0.805306368\"} 1
lat_bucket{le=\"1.073741824\"} 1
lat_bucket{le=\"1.610612736\"} 1
lat_bucket{le=\"2.147483648\"} 1
lat_bucket{le=\"3.221225472\"} 1
lat_bucket{le=\"4.294967296\"} 1
lat_bucket{le=\"6.442450944\"} 1
lat_bucket{le=\"8.589934592\"} 1
lat_bucket{le=\"12.884901888\"} 1
lat_bucket{le=\"17.179869184\"} 1
lat_bucket{le=\"+Inf\"} 2
lat_sum 20.0000005
lat_count 2
";
    assert_eq!(text, expected);

    // Rendering is deterministic: a second render is byte-identical.
    assert_eq!(obs::prom::render(&m.snapshot()), text);
}
