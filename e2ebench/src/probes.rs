//! Single-layer probes of the traced run: small, fixed pieces of work that
//! exercise one layer in process, each through public functions. They are
//! the same in every workload's traced run (their inputs depend only on the
//! seed), so a per-layer metric reads the same whichever workload's run
//! reported it.

use crate::agent::{bird_with_roles, BIRD_SEED};
use crate::check::Kind;
use crate::fixture::ScratchDir;
use crate::workloads::{bulk_calls, HOUSE_ROWS, THINK};
use crate::writer::Writer;
use bridgescope_core::proxy::{execute_unit_observed, ProxyUnit};
use minidb::storage::wal::SNAPSHOT_FILE;
use minidb::{Database, DurabilityConfig, FsyncPolicy, Session};
use std::path::Path;
use std::time::Instant;
use toolproto::Json;

/// `core::proxy` and `mltools`, on the `bulk_transfer` table and units.
pub struct ProxyProbe {
    /// Rows handed from producer to consumer per second of `execute_unit`.
    pub rows_per_s: f64,
    /// Bytes the level-1 plus the level-2 unit move tool to tool.
    pub bytes_moved: u64,
    /// The trainer alone, on rows fetched beforehand, us.
    pub consume_us: f64,
}

/// Run the level-1 and level-2 units of `bulk_transfer` through
/// `execute_unit`, and the consumer alone on pre-fetched rows.
pub fn proxy(seed: u64) -> ProxyProbe {
    let db = benchkit::housing::build_database(HOUSE_ROWS, seed);
    let obs = obs::Obs::in_memory();
    let server = bridgescope_core::BridgeScopeServer::build_observed(
        &db,
        "admin",
        bridgescope_core::SecurityPolicy::default(),
        &mltools::ml_registry(),
        obs.clone(),
    )
    .expect("admin exists");
    let calls = bulk_calls();
    let units: Vec<ProxyUnit> = calls[1..]
        .iter()
        .map(|(_, spec)| ProxyUnit::parse(spec).expect("valid unit"))
        .collect();
    let run = |unit: &ProxyUnit| {
        execute_unit_observed(&server.registry, unit, 0, &obs).expect("unit runs");
    };
    units.iter().for_each(run);
    let bytes_moved = obs.snapshot().metrics.counter("proxy.bytes_moved");
    const ROUNDS: usize = 3;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        units.iter().for_each(run);
    }
    // The level-2 unit hands its rows over twice (select -> normalize ->
    // train), the level-1 unit once.
    let rows = (ROUNDS * 3 * HOUSE_ROWS) as f64;
    let rows_per_s = rows / started.elapsed().as_secs_f64();

    let (_, select_args) = &calls[0];
    let fetched = server
        .registry
        .call("select", select_args)
        .expect("select runs")
        .value;
    let data = fetched.get("rows").cloned().expect("rows");
    let args = Json::object([("data", data), ("target", Json::num(2.0))]);
    let train = || {
        server
            .registry
            .call("train_linear_regression", &args)
            .expect("trainer runs")
    };
    train();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(train());
    }
    ProxyProbe {
        rows_per_s,
        bytes_moved,
        consume_us: started.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64,
    }
}

/// What running the `durable_write` transactions on one engine measured.
pub struct TxnProbe {
    /// Mean `COMMIT`, us.
    pub commit_us: f64,
    /// Mean of the commits that compacted the WAL into a snapshot, us.
    pub checkpoint_commit_us: f64,
    /// Commits that did.
    pub checkpoints: u64,
    /// Transactions committed.
    pub txns: u64,
    /// Most versions the MVCC history held after a commit.
    pub retained_versions_max: usize,
    /// Bytes of every snapshot written.
    pub snapshot_bytes: u64,
}

/// Transactions per engine probe: two snapshot cycles and a WAL tail.
const PROBE_TXNS: u64 = 600;

/// Run [`PROBE_TXNS`] generated transactions on one engine session.
/// `dir` is the durable directory, if the engine has one.
fn transactions(db: &Database, seed: u64, dir: Option<&Path>) -> TxnProbe {
    let mut session: Session = db.session("alice_admin").expect("role user exists");
    let mut writer = Writer::new(seed);
    let (mut commit_ns, mut checkpoint_ns) = (Vec::new(), Vec::new());
    let mut retained_versions_max = 0;
    let mut snapshot_bytes = 0;
    while writer.transactions() < PROBE_TXNS || !writer.between_transactions() {
        let call = writer.next_call();
        match call.kind {
            Kind::Begin => {
                session.begin().expect("begin");
            }
            Kind::Commit => {
                let wal_before = db.wal_bytes_since_checkpoint();
                let t = Instant::now();
                session.commit().expect("commit");
                let ns = t.elapsed().as_nanos() as u64;
                // A commit that leaves less WAL than it found compacted it.
                if db.wal_bytes_since_checkpoint() < wal_before {
                    checkpoint_ns.push(ns);
                    snapshot_bytes += dir
                        .and_then(|d| std::fs::metadata(d.join(SNAPSHOT_FILE)).ok())
                        .map_or(0, |m| m.len());
                } else {
                    commit_ns.push(ns);
                }
                retained_versions_max = retained_versions_max.max(db.retained_versions());
            }
            _ => {
                session
                    .execute_sql(call.sql().expect("SQL call"))
                    .expect("generated statement runs");
            }
        }
    }
    let errors = writer.verify(db);
    assert!(errors.is_empty(), "txn probe: {errors:?}");
    let mean_us = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3;
    TxnProbe {
        commit_us: mean_us(&commit_ns),
        checkpoint_commit_us: mean_us(&checkpoint_ns),
        checkpoints: checkpoint_ns.len() as u64,
        txns: writer.transactions(),
        retained_versions_max,
        snapshot_bytes,
    }
}

/// `minidb.txn` and `minidb.storage`.
pub struct EngineProbe {
    /// The volatile engine.
    pub volatile: TxnProbe,
    /// Conflicts the volatile run raised (must be 0).
    pub conflicts: u64,
    /// The WAL engine with the `serve --data-dir` defaults.
    pub durable: TxnProbe,
    /// The WAL engine with fsync off.
    pub no_fsync: TxnProbe,
    /// `wal.bytes` appended by the durable run.
    pub wal_bytes: u64,
    /// `wal.fsyncs` of the durable run.
    pub fsyncs: u64,
    /// Reopening the durable directory (snapshot + WAL tail), ms.
    pub recover_ms: f64,
    /// fsync policy and file system, for the record.
    pub durability: String,
}

/// One durable run: the probe, `wal.bytes` and `wal.fsyncs` of its
/// transaction phase, and the time to reopen the directory, ms.
fn durable_engine(out: &Path, policy: FsyncPolicy, seed: u64) -> (TxnProbe, u64, u64, f64) {
    let dir = ScratchDir::create(out).expect("create scratch directory");
    let config = DurabilityConfig::new(&dir.0).with_fsync(policy);
    let obs = obs::Obs::in_memory();
    let (db, _) = Database::open_observed(&config, obs.clone()).expect("open fresh directory");
    benchkit::bird::build_database_on(&db, BIRD_SEED);
    benchkit::roles::install_roles(&db, &db.table_names());
    let before = obs.snapshot().metrics;
    let probe = transactions(&db, seed, Some(&dir.0));
    let after = obs.snapshot().metrics;
    let grew = |name: &str| after.counter(name) - before.counter(name);
    drop(db);
    let started = Instant::now();
    let (reopened, _) = Database::open(&config).expect("reopen");
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(reopened);
    (probe, grew("wal.bytes"), grew("wal.fsyncs"), recover_ms)
}

/// The `durable_write` transaction stream, in process, on three engines.
pub fn engine(seed: u64, out: &Path) -> EngineProbe {
    let bench = bird_with_roles();
    let obs = obs::Obs::in_memory();
    bench.template.attach_obs(obs.clone());
    let volatile = transactions(&bench.template, seed, None);
    let conflicts = obs.snapshot().metrics.counter("mvcc.conflicts");
    let policy = FsyncPolicy::default();
    let (durable, wal_bytes, fsyncs, recover_ms) = durable_engine(out, policy, seed);
    let (no_fsync, ..) = durable_engine(out, FsyncPolicy::Off, seed);
    EngineProbe {
        volatile,
        conflicts,
        durable,
        no_fsync,
        wal_bytes,
        fsyncs,
        recover_ms,
        durability: format!(
            "fsync {policy:?}, snapshot every 256 commits, {} file system",
            crate::sys::filesystem_of(out)
        ),
    }
}

/// How much longer than asked `agent_paced`'s think pause lasts, us.
pub fn sleep_overrun_us() -> f64 {
    const PAUSES: u32 = 200;
    let mut over = 0.0;
    for _ in 0..PAUSES {
        let t = Instant::now();
        std::thread::sleep(THINK);
        over += t.elapsed().saturating_sub(THINK).as_secs_f64();
    }
    over * 1e6 / f64::from(PAUSES)
}
