//! Running one workload end to end: set-up (timed, with its warm-up),
//! repetitions of fixed work, reduction to the end-to-end metrics, and the
//! checks that run after the server has stopped.

use crate::check::Kind;
use crate::fixture::{Fixture, ScratchDir, Script, Served};
use crate::load::{run_rep, Rep, Sample};
use crate::metrics::{Measured, Metrics};
use crate::stats::Latency;
use crate::workloads::Spec;
use minidb::{Database, DurabilityConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// A workload that has been set up and warmed and can be measured.
pub trait Bench {
    /// One repetition of `seconds` seconds' worth of frozen work.
    fn rep(&mut self, seconds: f64) -> Rep;
    /// Stop everything and run the post-run checks; one message per
    /// failed check.
    fn finish(self: Box<Self>) -> Vec<String>;
}

/// A wire workload, served as shipped, with its sessions connected.
pub struct WireBench {
    served: Served,
    clients: Vec<wire::Client>,
    scripts: Vec<Script>,
    rate: [usize; 2],
    think: Option<Duration>,
    durable: Option<(DurabilityConfig, ScratchDir)>,
    db: Database,
}

impl WireBench {
    /// Generate the data, record the traces, bind, connect, and replay
    /// every session's list once untimed so caches, pools and pages are in
    /// their steady state. All of it is the workload's set-up time.
    pub fn set_up(spec: &Spec, seed: u64, out: &Path) -> WireBench {
        let obs = Served::shipped_obs();
        let Fixture {
            db,
            sessions,
            think,
            durable,
            ..
        } = (spec.build)(seed, out, &obs);
        let served = Served::start(&db, obs);
        let clients = sessions.iter().map(|s| served.connect(s.user)).collect();
        let mut bench = WireBench {
            served,
            clients,
            scripts: sessions.into_iter().map(|s| s.script).collect(),
            rate: spec.rate,
            think,
            durable,
            db,
        };
        let warm_up: Vec<usize> = bench
            .scripts
            .iter()
            .zip(spec.rate)
            .map(|(script, rate)| match script {
                Script::Replay { calls, .. } => calls.len(),
                Script::Writer(_) => rate / 2,
            })
            .collect();
        // Unpaced: think time changes when calls arrive, not what they warm.
        let rep = run_rep(&mut bench.clients, &mut bench.scripts, &warm_up, None);
        let failed = rep.sessions.iter().flatten().filter(|s| !s.ok).count();
        assert_eq!(failed, 0, "{}: {failed} warm-up calls failed", spec.name);
        bench
    }

    /// The server's telemetry handle.
    pub fn obs(&self) -> &obs::Obs {
        self.served.obs()
    }
}

impl Bench for WireBench {
    fn rep(&mut self, seconds: f64) -> Rep {
        let quotas: Vec<usize> = self
            .rate
            .iter()
            .map(|r| ((*r as f64 * seconds).round() as usize).max(1))
            .collect();
        run_rep(&mut self.clients, &mut self.scripts, &quotas, self.think)
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        let WireBench {
            served,
            mut clients,
            scripts,
            durable,
            db,
            ..
        } = *self;
        for client in &mut clients {
            let _ = client.shutdown();
        }
        drop(clients);
        served.shutdown();
        let Some((config, _dir)) = durable else {
            return Vec::new();
        };
        // Release the engine (and its file handles) before reopening.
        drop(db);
        let writer = scripts
            .iter()
            .find_map(|s| match s {
                Script::Writer(w) => Some(w),
                Script::Replay { .. } => None,
            })
            .expect("a durable workload has a writer");
        match Database::open(&config) {
            Ok((reopened, _)) => writer.verify(&reopened),
            Err(e) => vec![format!("cannot reopen {}: {e}", config.dir.display())],
        }
    }
}

/// What a run measured, before reduction.
pub struct Run {
    /// Wall time of each set-up, s.
    pub setups: Vec<f64>,
    /// The timed repetitions.
    pub reps: Vec<Rep>,
    /// Post-run check failures.
    pub errors: Vec<String>,
}

/// Set a workload up [`SETUPS`] times (keeping the last), then measure
/// `reps` repetitions that together hold `seconds` seconds of work.
pub fn run(set_up: &dyn Fn() -> Box<dyn Bench>, seconds: f64, reps: usize) -> Run {
    let mut setups = Vec::new();
    let mut errors = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = bench.take() {
            errors.extend(previous.finish());
        }
        let started = Instant::now();
        bench = Some(set_up());
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let reps = (0..reps)
        .map(|_| bench.rep(seconds / reps as f64))
        .collect();
    errors.extend(bench.finish());
    Run {
        setups,
        reps,
        errors,
    }
}

impl Run {
    /// Calls attempted and failed in the timed repetitions.
    pub fn attempted_failed(&self) -> (usize, usize) {
        let all = || self.reps.iter().flat_map(|r| r.sessions.iter().flatten());
        (all().count(), all().filter(|s| !s.ok).count())
    }

    /// Share of the attempted calls of each kind.
    pub fn mix(&self) -> Vec<(Kind, f64)> {
        let (attempted, _) = self.attempted_failed();
        Kind::ALL
            .iter()
            .map(|kind| {
                let n = self
                    .reps
                    .iter()
                    .flat_map(|r| r.sessions.iter().flatten())
                    .filter(|s| s.kind == *kind)
                    .count();
                (*kind, n as f64 / attempted.max(1) as f64)
            })
            .collect()
    }

    /// Reduce to the end-to-end metrics; `spec` says which sessions feed
    /// the call latencies and which call kinds end a transaction.
    pub fn end_to_end(&self, spec: &Spec) -> (Metrics, Latency, Latency) {
        let per_s = |count: &dyn Fn(&Rep) -> usize| -> Measured {
            Measured::median_of(
                self.reps
                    .iter()
                    .map(|r| count(r) as f64 / (r.wall_ns as f64 / 1e9))
                    .collect(),
            )
        };
        let samples = |r: &Rep, keep: &dyn Fn(usize, &Sample) -> bool| -> Vec<u64> {
            r.sessions
                .iter()
                .enumerate()
                .flat_map(|(i, s)| s.iter().filter(move |x| keep(i, x)).map(|x| x.ns))
                .collect()
        };
        let is_txn = |s: &Sample| s.ok && spec.txn_kinds.contains(&s.kind);
        let mut call_reps: Vec<Vec<u64>> = self
            .reps
            .iter()
            .map(|r| samples(r, &|i, _| spec.call_sessions.contains(&i)))
            .collect();
        let mut txn_reps: Vec<Vec<u64>> = self
            .reps
            .iter()
            .map(|r| samples(r, &|_, s| is_txn(s)))
            .collect();
        let call = Latency::of(&mut call_reps).expect("every repetition has calls");
        let txn = Latency::of(&mut txn_reps).expect("every repetition has transactions");
        let us = |ns: f64, reps: &[f64]| Measured {
            value: ns / 1e3,
            reps: reps.iter().map(|v| v / 1e3).collect(),
        };

        let mut m = Metrics::new();
        m.insert("setup_s", Measured::median_of(self.setups.clone()));
        m.insert(
            "calls_per_s",
            per_s(&|r| r.sessions.iter().flatten().filter(|s| s.ok).count()),
        );
        m.insert("call_p50_us", us(call.p50_ns, &call.p50_reps));
        m.insert("call_p99_us", us(call.tail_ns, &call.tail_reps));
        m.insert(
            "rows_per_s",
            per_s(&|r| r.sessions.iter().flatten().map(|s| s.rows).sum()),
        );
        m.insert(
            "txn_per_s",
            per_s(&|r| r.sessions.iter().flatten().filter(|s| is_txn(s)).count()),
        );
        m.insert("commit_p50_us", us(txn.p50_ns, &txn.p50_reps));
        m.insert("commit_p99_us", us(txn.tail_ns, &txn.tail_reps));
        m.insert(
            "wall_s",
            Measured::median_of(self.reps.iter().map(|r| r.wall_ns as f64 / 1e9).collect()),
        );
        m.insert("peak_rss_mb", Measured::once(crate::sys::peak_rss_mb()));
        (m, call, txn)
    }
}
