//! Recording what the simulated agents send.
//!
//! A `ReactAgent` is run once, in process, against a tool surface whose
//! every tool is wrapped in a forwarder that notes the call, its in-process
//! outcome and its duration. The server under test later receives only the
//! noted `(tool, arguments)` pairs; the noted outcomes are the oracle.

use crate::check::{call_from_oracle, Call, Kind};
use benchkit::harness::task_seed;
use benchkit::roles::install_roles;
use benchkit::{BirdExt, BirdTask};
use bridgescope_core::{BridgeScopeServer, SecurityPolicy};
use llmsim::{LlmProfile, ReactAgent};
use minidb::Database;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use toolproto::{Args, Json, Registry, Risk, Signature, Tool, ToolResult};

/// One call seen by a forwarder.
pub struct Tapped {
    /// The call with its oracle; `None` when it failed other than by a
    /// privilege denial (such calls are not replayed).
    pub call: Option<Call>,
    /// What the call was.
    pub kind: Kind,
    /// Rows it delivered.
    pub rows: usize,
    /// Time inside the wrapped tool, ns.
    pub ns: u64,
}

/// Shared log of a tapped registry.
pub type TapLog = Arc<Mutex<Vec<Tapped>>>;

struct Tap {
    inner: Arc<dyn Tool>,
    log: TapLog,
}

impl Tool for Tap {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn description(&self) -> &str {
        self.inner.description()
    }
    fn signature(&self) -> &Signature {
        self.inner.signature()
    }
    fn risk(&self) -> Risk {
        self.inner.risk()
    }
    fn invoke(&self, args: &Args) -> ToolResult {
        let started = Instant::now();
        let result = self.inner.invoke(args);
        let ns = started.elapsed().as_nanos() as u64;
        let call = call_from_oracle(self.inner.name(), Json::Object(args.clone()), &result);
        let (kind, rows) = call
            .as_ref()
            .map_or((Kind::of_tool(self.inner.name()), 0), |c| (c.kind, c.rows));
        self.log.lock().expect("tap log poisoned").push(Tapped {
            call,
            kind,
            rows,
            ns,
        });
        result
    }
}

/// The same surface with every tool behind a recording forwarder.
pub fn tap(registry: &Registry) -> (Registry, TapLog) {
    let log: TapLog = Arc::default();
    let mut tapped = Registry::new();
    for tool in registry.iter() {
        tapped.register(Arc::new(Tap {
            inner: Arc::clone(tool),
            log: Arc::clone(&log),
        }));
    }
    (tapped, log)
}

/// Take everything logged so far.
pub fn drain(log: &TapLog) -> Vec<Tapped> {
    std::mem::take(&mut *log.lock().expect("tap log poisoned"))
}

/// The surface a wire session of `user` gets (`Tenancy::new` serves the
/// default policy), built in process over `db`.
pub fn surface(db: &Database, user: &str) -> BridgeScopeServer {
    BridgeScopeServer::build(db, user, SecurityPolicy::default(), &mltools::ml_registry())
        .expect("role user exists")
}

/// The seed BIRD-Ext itself (database and tasks) is generated from.
///
/// It is fixed, and `--seed` drives what the agents do with the tasks (the
/// order they are taken in, every simulated mistake and retry, the denied
/// statements): the tasks' result sizes are heavy-tailed, and 150 of them
/// do not average that out, so a BIRD-Ext per seed made rows per call and
/// calls per task differ between seeds by more than a regression bound.
pub const BIRD_SEED: u64 = 42;

/// BIRD-Ext with the three role users installed on its template.
pub fn bird_with_roles() -> BirdExt {
    let bench = benchkit::generate_bird_ext(BIRD_SEED);
    let task_tables: Vec<String> = bench
        .template
        .table_names()
        .into_iter()
        .filter(|t| t != "employee_salaries")
        .collect();
    install_roles(&bench.template, &task_tables);
    bench
}

/// Run `profile` over `tasks`, taken in an order drawn from `seed`, as
/// `user` on a fork of `db`, and return the tool calls it made, each with
/// its in-process outcome as oracle.
pub fn record(
    db: &Database,
    user: &str,
    profile: &LlmProfile,
    tasks: &[&BirdTask],
    seed: u64,
) -> Vec<Call> {
    let server = surface(&db.fork(), user);
    let (registry, log) = tap(&server.registry);
    let agent = ReactAgent::new(profile.clone(), server.prompt);
    let mut tasks = tasks.to_vec();
    shuffle(&mut tasks, &mut SmallRng::seed_from_u64(seed ^ 0x0bde));
    for task in tasks {
        agent.run(&registry, &task.spec, task_seed(seed, &task.spec.id));
    }
    drain(&log).into_iter().filter_map(|t| t.call).collect()
}

/// Fisher-Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` seeded `select`s on `employee_salaries`, which neither task role
/// holds a grant on, with the denial the in-process surface answers.
pub fn denied_calls(db: &Database, user: &str, n: usize, seed: u64) -> Vec<Call> {
    let server = surface(&db.fork(), user);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xde_41ed);
    (0..n)
        .map(|_| {
            let sql = match rng.gen_range(0..3) {
                0 => format!(
                    "SELECT emp_name, salary FROM employee_salaries WHERE emp_id = {}",
                    rng.gen_range(0..20)
                ),
                1 => format!(
                    "SELECT COUNT(*) FROM employee_salaries WHERE salary > {}",
                    rng.gen_range(30_000..180_000)
                ),
                _ => "SELECT dept, AVG(salary) FROM employee_salaries GROUP BY dept".to_owned(),
            };
            let args = Json::object([("sql", Json::str(sql))]);
            let result = server.registry.call("select", &args);
            let call = call_from_oracle("select", args, &result).expect("denial or success");
            assert_eq!(call.kind, Kind::Denied, "{user} must lack the grant");
            call
        })
        .collect()
}

/// `calls` with one of `denied` spliced in as every `every`-th call.
pub fn with_denials(calls: Vec<Call>, denied: Vec<Call>, every: usize) -> Vec<Call> {
    let mut out = Vec::with_capacity(calls.len() + denied.len());
    let mut denied = denied.into_iter();
    for call in calls {
        if (out.len() + 1) % every == 0 {
            if let Some(d) = denied.next() {
                out.push(d);
            }
        }
        out.push(call);
    }
    out
}

/// Denials needed so that one call in `every` of a list grown from
/// `recorded` calls is a denial.
pub fn denials_for(recorded: usize, every: usize) -> usize {
    recorded / (every - 1) + 1
}
