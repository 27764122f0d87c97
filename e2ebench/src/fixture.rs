//! What a wire workload's set-up produces, and the server it is served by.

use crate::check::Call;
use crate::writer::Writer;
use minidb::{Database, DurabilityConfig, VacuumHandle};
use std::borrow::Cow;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use wire::{Client, Tenancy, WireConfig, WireServer};

/// Where one session's calls come from.
pub enum Script {
    /// Replay a recorded list, round and round.
    Replay {
        /// The list.
        calls: Arc<Vec<Call>>,
        /// Next index.
        pos: usize,
    },
    /// Generate write transactions against a model (see [`Writer`]).
    Writer(Writer),
}

impl Script {
    /// Replay `calls` from the start.
    pub fn replay(calls: Vec<Call>) -> Script {
        assert!(!calls.is_empty(), "empty call list");
        Script::Replay {
            calls: Arc::new(calls),
            pos: 0,
        }
    }

    /// The next call to send.
    pub fn next_call(&mut self) -> Cow<'_, Call> {
        match self {
            Script::Replay { calls, pos } => {
                let call = &calls[*pos % calls.len()];
                *pos += 1;
                Cow::Borrowed(call)
            }
            Script::Writer(w) => Cow::Owned(w.next_call()),
        }
    }

    /// Start a replayed list over; a writer carries on (its keys must not
    /// repeat).
    pub fn restart(&mut self) {
        if let Script::Replay { pos, .. } = self {
            *pos = 0;
        }
    }
}

/// One client session: who it authenticates as and what it sends.
pub struct SessionPlan {
    /// Database user.
    pub user: &'static str,
    /// Call source.
    pub script: Script,
}

/// The product of a wire workload's data generation.
pub struct Fixture {
    /// The database the server serves.
    pub db: Database,
    /// The client sessions, one connection and one thread each.
    pub sessions: Vec<SessionPlan>,
    /// Context and denied probes per session, used only by the traced run
    /// to time those call classes on workloads whose own traffic has none.
    pub probes: Vec<Call>,
    /// Pause before each call (`agent_paced`).
    pub think: Option<Duration>,
    /// Durable directory to reopen and verify after shutdown, with the
    /// scratch directory that holds it.
    pub durable: Option<(DurabilityConfig, ScratchDir)>,
    /// Rows per second the set-up's bulk load achieved, when it had one.
    pub load_rows_per_s: Option<f64>,
}

/// A directory under the benchmark's output directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Create `out/tmp/<pid>-<n>`.
    pub fn create(out: &std::path::Path) -> std::io::Result<ScratchDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out.join("tmp").join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What `examples/serve --cache` serves over `db`: the caching gate and the
/// ML tools as external registry.
pub fn shipped_tenancy(db: &Database) -> Tenancy {
    Tenancy::new(db.clone())
        .with_external(mltools::ml_registry())
        .with_gate(gate::GateConfig::default().with_cache())
}

/// A bound server in the configuration `examples/serve --cache` ships:
/// default wire limits, caching gate, the ML tools as external registry, a
/// 5 s background vacuum. (`serve` also starts a 2 s trace flusher, which
/// does nothing for in-memory telemetry: `Obs::start_flusher` returns `None`
/// without a trace file.)
pub struct Served {
    server: WireServer,
    _vacuum: VacuumHandle,
}

impl Served {
    /// Bind on an ephemeral loopback port recording into `obs`.
    pub fn start(db: &Database, obs: obs::Obs) -> Served {
        let tenancy = shipped_tenancy(db);
        let vacuum = db.start_vacuum(Duration::from_secs(5));
        let server = WireServer::bind("127.0.0.1:0", tenancy, WireConfig::default(), obs)
            .expect("bind loopback");
        Served {
            server,
            _vacuum: vacuum,
        }
    }

    /// The telemetry handle `serve` creates when no trace file is asked for.
    pub fn shipped_obs() -> obs::Obs {
        obs::Obs::from_config(&obs::ObsConfig::InMemory)
    }

    /// Listening address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The server's telemetry.
    pub fn obs(&self) -> &obs::Obs {
        self.server.obs()
    }

    /// Open and initialize one session.
    pub fn connect(&self, user: &str) -> Client {
        let mut client = Client::connect(self.addr()).expect("connect loopback");
        client.initialize(user).expect("initialize session");
        client
    }

    /// Drain and stop; a durable database is checkpointed on the way.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}
