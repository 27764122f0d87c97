//! The closed-loop load generator: one thread and one connection per
//! session, each sending its next call only after the previous reply.

use crate::check::{Call, Kind};
use crate::fixture::Script;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use toolproto::ToolResult;

/// One measured call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client round trip, ns.
    pub ns: u64,
    /// What the call was.
    pub kind: Kind,
    /// Rows it delivered (0 unless `ok`).
    pub rows: usize,
    /// Whether the outcome matched the oracle.
    pub ok: bool,
}

/// Everything one repetition measured.
pub struct Rep {
    /// First call sent to last reply received, ns.
    pub wall_ns: u64,
    /// Samples per session, in send order.
    pub sessions: Vec<Vec<Sample>>,
    /// How much longer than asked each think pause lasted, ns.
    pub overruns: Vec<u64>,
}

/// Send `call` through `send` and judge the reply.
pub fn measure(call: &Call, send: impl FnOnce(&Call) -> Option<ToolResult>) -> Sample {
    let started = Instant::now();
    let reply = send(call);
    let ns = started.elapsed().as_nanos() as u64;
    // A transport or protocol failure (`None`, e.g. `server_busy`) fails
    // the call like any wrong answer.
    let ok = reply.as_ref().is_some_and(|r| call.accepts(r));
    Sample {
        ns,
        kind: call.kind,
        rows: if ok { call.rows } else { 0 },
        ok,
    }
}

/// Run one repetition: session `i` makes `quotas[i]` calls over
/// `clients[i]` (a writer finishes the transaction it is in), all sessions
/// starting together.
pub fn run_rep(
    clients: &mut [wire::Client],
    scripts: &mut [Script],
    quotas: &[usize],
    think: Option<Duration>,
) -> Rep {
    let barrier = Barrier::new(clients.len());
    let results: Vec<(Instant, Instant, Vec<Sample>, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts.iter_mut())
            .zip(quotas)
            .map(|((client, script), &quota)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(quota + 8);
                    let mut overruns = Vec::new();
                    barrier.wait();
                    let started = Instant::now();
                    while samples.len() < quota || mid_transaction(script) {
                        if let Some(pause) = think {
                            let t = Instant::now();
                            std::thread::sleep(pause);
                            overruns.push(t.elapsed().saturating_sub(pause).as_nanos() as u64);
                        }
                        let call = script.next_call();
                        samples.push(measure(&call, |c| client.call(&c.tool, &c.args).ok()));
                    }
                    (started, Instant::now(), samples, overruns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let first = results.iter().map(|r| r.0).min().expect("sessions");
    let last = results.iter().map(|r| r.1).max().expect("sessions");
    let mut sessions = Vec::new();
    let mut overruns = Vec::new();
    for (_, _, samples, over) in results {
        sessions.push(samples);
        overruns.extend(over);
    }
    Rep {
        wall_ns: (last - first).as_nanos() as u64,
        sessions,
        overruns,
    }
}

fn mid_transaction(script: &Script) -> bool {
    matches!(script, Script::Writer(w) if !w.between_transactions())
}
