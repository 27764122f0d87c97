//! Shared by the root wire tests: the demo database `examples/serve.rs`
//! serves, and a scoped-thread driver of concurrent `wire::Client`
//! sessions.

use bridgescope::prelude::*;
use std::net::SocketAddr;
use wire::{ErrorCode, WireError};

/// The demo content of `examples/serve.rs`: 200 `sales` rows over four
/// regions, a one-row `audit_log`, and a `reader` who may select `sales`.
pub fn demo_db() -> Database {
    let db = Database::new();
    let mut admin = db.session("admin").unwrap();
    admin
        .execute_sql("CREATE TABLE sales (id INTEGER PRIMARY KEY, region TEXT, amount REAL)")
        .unwrap();
    admin
        .execute_sql("CREATE TABLE audit_log (id INTEGER PRIMARY KEY, note TEXT)")
        .unwrap();
    admin
        .execute_sql("INSERT INTO audit_log VALUES (1, 'seed')")
        .unwrap();
    for i in 0..200 {
        let region = ["north", "south", "east", "west"][i % 4];
        let amount = 10 + i % 50;
        admin
            .execute_sql(&format!(
                "INSERT INTO sales VALUES ({i}, '{region}', {amount}.0)"
            ))
            .unwrap();
    }
    db.create_user("reader", false).unwrap();
    db.grant("reader", Action::Select, "sales").unwrap();
    db
}

/// What one session saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Calls that returned an output.
    pub ok: u64,
    /// Calls shed with `server_busy`.
    pub busy: u64,
    /// Tool errors, denials included, in call order.
    pub errors: Vec<ToolError>,
}

/// Open one session per `(user, sql)` pair at once; each makes `calls`
/// `select` calls of its statement back to back, with no think time.
/// Returns one tally per session, in input order. A transport failure
/// fails the test.
pub fn drive(addr: SocketAddr, sessions: &[(&str, &str)], calls: usize) -> Vec<Tally> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = sessions
            .iter()
            .map(|&(user, sql)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.initialize(user).unwrap();
                    let args = Json::object([("sql", Json::str(sql))]);
                    let mut tally = Tally::default();
                    for _ in 0..calls {
                        match client.call("select", &args) {
                            Ok(Ok(_)) => tally.ok += 1,
                            Ok(Err(e)) => tally.errors.push(e),
                            Err(WireError::Rpc(rpc)) if rpc.code == ErrorCode::ServerBusy => {
                                tally.busy += 1
                            }
                            Err(e) => panic!("{user}: transport failure: {e}"),
                        }
                    }
                    client.shutdown().unwrap();
                    tally
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    })
}
