//! Serve a demo BridgeScope database over the wire, MCP-style.
//!
//! Two modes:
//!
//! * `cargo run --example serve` — bind a TCP listener (default
//!   `127.0.0.1:0`, i.e. an ephemeral port), print the address, and serve
//!   until the process is killed. Pass `--addr HOST:PORT` to pick a port
//!   and `--trace FILE` to append the JSONL trace to `FILE` every 2 s. Pass
//!   `--data-dir DIR` to serve a *durable* database (WAL + snapshot in
//!   `DIR`; recovered on start, seeded with the demo content only when the
//!   directory is fresh) and `--fsync {commit,off}` to pick whether each
//!   commit is fsynced before it is acknowledged (default `commit`).
//!   `--admin-addr HOST:PORT` adds the HTTP admin plane (`/metrics`,
//!   `/healthz`, `/readyz`, `/slow`, `/statements`, `/queries`), and
//!   `--slow-ms N` sets its slow-call threshold (default 100).
//! * `cargo run --example serve -- --stdio` — serve exactly one session on
//!   stdin/stdout (the MCP stdio transport; the parent process owns the
//!   pipes).
//!
//! The TCP mode takes gate flags: `--cache` turns on the retrieval +
//! prepared-plan caches, `--budgets N` caps every database user at N tool
//! calls via a shared budget ledger, and `--weight USER=N` (repeatable)
//! gives USER an N-share weighted slice of the worker pool (everyone else
//! gets weight 1).
//!
//! `tests/serve_smoke.rs` drives the same demo content over real sockets.

use bridgescope::prelude::*;
use std::time::Duration;

/// The demo database: a `sales` table anyone privileged can read, an
/// `audit_log` a session policy can fence off, and a read-only `reader`
/// user to demonstrate per-session privilege gating.
fn demo_db() -> Database {
    let db = Database::new();
    populate_demo(&db);
    db
}

/// Seed the demo content onto an existing (fresh) database — the same
/// content whether the engine is volatile or durable.
fn populate_demo(db: &Database) {
    let mut admin = db.session("admin").expect("admin exists");
    for sql in [
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, region TEXT, amount REAL)",
        "CREATE TABLE audit_log (id INTEGER PRIMARY KEY, note TEXT)",
        "INSERT INTO audit_log VALUES (1, 'seed')",
    ] {
        admin.execute_sql(sql).expect("setup SQL is valid");
    }
    for i in 0..200 {
        let region = ["north", "south", "east", "west"][i % 4];
        admin
            .execute_sql(&format!(
                "INSERT INTO sales VALUES ({i}, '{region}', {}.0)",
                10 + i % 50
            ))
            .expect("insert");
    }
    db.create_user("reader", false).expect("fresh user");
    db.grant("reader", sqlkit::Action::Select, "sales")
        .expect("sales exists");
}

fn tenancy() -> Tenancy {
    Tenancy::new(demo_db()).with_external(ml_registry())
}

fn fail(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--stdio") => run_stdio(),
        _ => run_tcp(&args),
    }
}

/// Plain TCP serving until killed.
fn run_tcp(args: &[String]) {
    let mut addr = "127.0.0.1:0".to_owned();
    let mut admin_addr: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::default();
    let mut slow_ms: u64 = 100;
    let mut cache = false;
    let mut budget_calls: Option<u64> = None;
    let mut tenant_weights: Vec<(String, u32)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache" => cache = true,
            "--budgets" => {
                budget_calls = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| fail("--budgets needs a per-user call limit")),
                )
            }
            "--weight" => {
                let spec = it.next().unwrap_or_else(|| fail("--weight needs USER=N"));
                let (user, n) = spec
                    .split_once('=')
                    .and_then(|(u, n)| n.parse::<u32>().ok().map(|n| (u, n)))
                    .unwrap_or_else(|| fail(&format!("bad --weight '{spec}', want USER=N")));
                tenant_weights.push((user.to_owned(), n));
            }
            "--addr" => {
                addr = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| fail("--addr needs a value"))
            }
            "--admin-addr" => {
                admin_addr = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| fail("--admin-addr needs a value")),
                )
            }
            "--slow-ms" => {
                slow_ms = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail("--slow-ms needs a number of milliseconds"))
            }
            "--trace" => {
                trace = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| fail("--trace needs a value")),
                )
            }
            "--data-dir" => {
                data_dir = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| fail("--data-dir needs a value")),
                )
            }
            "--fsync" => {
                let value = it
                    .next()
                    .unwrap_or_else(|| fail("--fsync needs commit|off"));
                fsync = FsyncPolicy::parse(value)
                    .unwrap_or_else(|| fail(&format!("unknown fsync policy '{value}'")));
            }
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    let obs_config = match &trace {
        Some(path) => ObsConfig::Jsonl(path.into()),
        None => ObsConfig::InMemory,
    };
    // The flight recorder rides along whenever the admin plane is up: /slow
    // is only reachable through it.
    let obs = if admin_addr.is_some() {
        Obs::with_flight(
            &obs_config,
            FlightConfig::with_threshold_ns(slow_ms.saturating_mul(1_000_000)),
        )
    } else {
        Obs::from_config(&obs_config)
    };
    let tenancy = match &data_dir {
        Some(dir) => {
            let config = DurabilityConfig::new(dir).with_fsync(fsync);
            let (db, report) = Database::open_observed(&config, obs.clone())
                .unwrap_or_else(|e| fail(&format!("cannot open data dir {dir}: {e}")));
            println!("{}", report.render());
            if !report.snapshot_loaded && report.replayed_txns == 0 {
                populate_demo(&db);
                println!("seeded fresh durable database in {dir}");
            }
            Tenancy::new(db).with_external(ml_registry())
        }
        None => tenancy(),
    };
    let mut gate = GateConfig::default();
    if cache {
        gate = gate.with_cache();
        println!("gate: retrieval + prepared-plan caches on");
    }
    if let Some(limit) = budget_calls {
        gate = gate.with_user_ledger(std::sync::Arc::new(BudgetLedger::new(
            BudgetLimits::unlimited().with_calls(limit),
        )));
        println!("gate: per-user budget of {limit} tool calls");
    }
    let tenancy = tenancy.with_gate(gate);
    if !tenant_weights.is_empty() {
        let shares: Vec<String> = tenant_weights
            .iter()
            .map(|(u, w)| format!("{u}={w}"))
            .collect();
        println!("gate: tenant weights {} (default 1)", shares.join(" "));
    }
    let wire_config = WireConfig {
        tenant_weights,
        ..WireConfig::default()
    };
    // Background vacuum keeps the MVCC version history bounded while the
    // server runs (the handle stops the thread when the process exits).
    let _vacuum = tenancy.database().start_vacuum(Duration::from_secs(5));
    // Periodic trace flush: a killed process loses at most ~2s of trace.
    let _flusher = obs.start_flusher(Duration::from_secs(2));
    let server = WireServer::bind(&addr, tenancy, wire_config, obs.clone())
        .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    let _admin = admin_addr.map(|admin_addr| {
        let admin = AdminServer::bind(&admin_addr, obs.clone(), server.ready_handle())
            .unwrap_or_else(|e| fail(&format!("cannot bind admin {admin_addr}: {e}")));
        println!(
            "admin on {} (/metrics /healthz /readyz /slow, slow threshold {slow_ms}ms)",
            admin.local_addr()
        );
        admin
    });
    println!("listening on {}", server.local_addr());
    println!(
        "users: admin (full), reader (select on sales); protocol {}",
        wire::PROTOCOL
    );
    // Serve until the process is killed; the accept loop owns the socket.
    loop {
        std::thread::park();
    }
}

/// One session on stdin/stdout.
fn run_stdio() {
    let tenancy = tenancy();
    let config = WireConfig::default();
    let obs = Obs::in_memory();
    if let Err(e) = wire::serve_stdio(&tenancy, &config, &obs) {
        fail(&format!("stdio transport failed: {e}"));
    }
}
