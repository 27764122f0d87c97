//! The evaluation harness: run (toolkit × agent × role × task set) cells and
//! aggregate the paper's metrics.

use crate::bird::{BirdExt, BirdTask};
use crate::eval;
use crate::nl2ml;
use crate::roles::{install_roles, Role};
use bridgescope_core::{pg_mcp, pg_mcp_minus, BridgeScopeServer, SecurityPolicy};
use llmsim::{Aggregate, LlmProfile, ReactAgent, TaskTrace};
use minidb::Database;
use mltools::ml_registry;
use obs::Obs;
use toolproto::Registry;

/// Which toolkit the agent is equipped with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Toolkit {
    /// The full BridgeScope server.
    BridgeScope,
    /// The stock PG-MCP baseline (get_schema + execute_sql).
    PgMcp,
    /// The reduced PG-MCP⁻ baseline (execute_sql only).
    PgMcpMinus,
}

impl Toolkit {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Toolkit::BridgeScope => "BridgeScope",
            Toolkit::PgMcp => "PG-MCP",
            Toolkit::PgMcpMinus => "PG-MCP-",
        }
    }
}

/// Which BIRD-Ext tasks a cell covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskClass {
    /// Query-only tasks.
    Read,
    /// Data-manipulation tasks.
    Write,
    /// Everything.
    All,
}

impl TaskClass {
    fn includes(&self, task: &BirdTask) -> bool {
        match self {
            TaskClass::Read => !task.is_write(),
            TaskClass::Write => task.is_write(),
            TaskClass::All => true,
        }
    }
}

/// Deterministic per-task seed (FNV-1a over the task id, mixed with the
/// run seed).
pub fn task_seed(run_seed: u64, task_id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ run_seed;
    for b in task_id.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Build the agent-facing registry + prompt for a toolkit over a database,
/// recording into `obs`. The security policy only affects BridgeScope (the
/// baselines have no policy surface). BridgeScope threads the handle through
/// every layer; the baselines at least get the registry-level call observer,
/// so per-tool counts and latencies stay comparable across toolkits.
pub fn build_toolkit_observed(
    toolkit: Toolkit,
    db: &Database,
    user: &str,
    external: &Registry,
    policy: SecurityPolicy,
    obs: Obs,
) -> (Registry, String) {
    match toolkit {
        Toolkit::BridgeScope => {
            let server = BridgeScopeServer::build_observed(db.clone(), user, policy, external, obs)
                .expect("user exists");
            (server.registry, server.prompt.to_owned())
        }
        Toolkit::PgMcp => {
            let server = pg_mcp(db.clone(), user, external).expect("user exists");
            let mut registry = server.registry;
            if let Some(observer) = obs.registry_observer() {
                registry.set_observer(observer);
            }
            (registry, server.prompt.to_owned())
        }
        Toolkit::PgMcpMinus => {
            let server = pg_mcp_minus(db.clone(), user, external).expect("user exists");
            let mut registry = server.registry;
            if let Some(observer) = obs.registry_observer() {
                registry.set_observer(observer);
            }
            (registry, server.prompt.to_owned())
        }
    }
}

/// One BIRD-Ext cell configuration.
#[derive(Debug, Clone)]
pub struct BirdCell {
    /// Toolkit under test.
    pub toolkit: Toolkit,
    /// Agent behaviour profile.
    pub profile: LlmProfile,
    /// Acting role.
    pub role: Role,
    /// Task class filter.
    pub class: TaskClass,
    /// Cap on the number of tasks (for quick runs); `None` = all.
    pub limit: Option<usize>,
    /// Run seed.
    pub seed: u64,
}

/// Result of one cell: the aggregate plus each trace (for debugging).
pub struct CellOutcome {
    /// Aggregated metrics.
    pub aggregate: Aggregate,
    /// Individual traces, parallel to the tasks run.
    pub traces: Vec<TaskTrace>,
}

/// Run one BIRD-Ext cell under the default security policy.
pub fn run_bird_cell(bench: &BirdExt, cell: &BirdCell) -> CellOutcome {
    let task_tables: Vec<String> = bench
        .template
        .table_names()
        .into_iter()
        .filter(|t| t != "employee_salaries")
        .collect();
    let mut aggregate = Aggregate::default();
    let mut traces = Vec::new();
    let tasks: Vec<&BirdTask> = bench
        .tasks
        .iter()
        .filter(|t| cell.class.includes(t))
        .take(cell.limit.unwrap_or(usize::MAX))
        .collect();
    let external = Registry::new();
    for task in tasks {
        let db = bench.template.fork();
        install_roles(&db, &task_tables);
        let (registry, prompt) = build_toolkit_observed(
            cell.toolkit,
            &db,
            cell.role.user(),
            &external,
            SecurityPolicy::default(),
            Obs::disabled(),
        );
        let agent = ReactAgent::new(cell.profile.clone(), prompt);
        let trace = agent.run(&registry, &task.spec, task_seed(cell.seed, &task.spec.id));
        let feasible = cell.role.feasible(task.is_write());
        let correct = if !feasible {
            // An infeasible task is handled correctly iff the agent aborted
            // (rather than claiming success) and nothing changed.
            trace.outcome.is_aborted()
        } else if task.is_write() {
            let gold_db = bench.template.fork();
            let mut s = gold_db.session("admin").expect("admin");
            for st in &task.spec.steps {
                s.execute_sql(&st.gold).expect("gold verified by tests");
            }
            trace.outcome.is_completed() && eval::write_correct(&db, &gold_db, &task.eval_tables)
        } else {
            let gold_db = bench.template.fork();
            let mut s = gold_db.session("admin").expect("admin");
            let gold = s
                .execute_sql(&task.spec.steps[0].gold)
                .expect("gold verified by tests");
            trace.outcome.is_completed() && eval::read_correct(trace.answer.as_ref(), &gold)
        };
        aggregate.add(&trace, task.is_write() && feasible, correct);
        traces.push(trace);
    }
    CellOutcome { aggregate, traces }
}

/// One NL2ML run configuration.
#[derive(Debug, Clone)]
pub struct Nl2mlConfig {
    /// Toolkit under test.
    pub toolkit: Toolkit,
    /// Agent behaviour profile.
    pub profile: LlmProfile,
    /// Rows in the house table (20,000 in the paper; 20 for PG-MCP-S).
    pub rows: usize,
    /// Cap on tasks; `None` = all 30.
    pub limit: Option<usize>,
    /// Run seed.
    pub seed: u64,
}

/// Run the NL2ML benchmark under one configuration.
pub fn run_nl2ml(cfg: &Nl2mlConfig) -> CellOutcome {
    run_nl2ml_observed(cfg, &Obs::disabled())
}

/// [`run_nl2ml`] recording the whole run into `obs`: task/LLM-call spans
/// from the agent, tool/SQL/proxy spans from the toolkit, and the `llm.*` /
/// `tool.*` / `proxy.*` counters a summary or JSONL export reads from.
pub(crate) fn run_nl2ml_observed(cfg: &Nl2mlConfig, obs: &Obs) -> CellOutcome {
    let db = crate::housing::build_database(cfg.rows, cfg.seed);
    db.create_user("analyst", false).expect("fresh db");
    db.grant("analyst", sqlkit::Action::Select, "house")
        .expect("house exists");
    let external = ml_registry();
    let (registry, prompt) = build_toolkit_observed(
        cfg.toolkit,
        &db,
        "analyst",
        &external,
        SecurityPolicy::default(),
        obs.clone(),
    );
    let agent = ReactAgent::new(cfg.profile.clone(), prompt).with_obs(obs.clone());
    let mut aggregate = Aggregate::default();
    let mut traces = Vec::new();
    for task in nl2ml::tasks()
        .into_iter()
        .take(cfg.limit.unwrap_or(usize::MAX))
    {
        let trace = agent.run(&registry, &task, task_seed(cfg.seed, &task.id));
        // NL2ML correctness = the pipeline completed and reported a finite
        // training/prediction quality number.
        let correct = trace.outcome.is_completed()
            && trace
                .answer
                .as_ref()
                .and_then(|a| {
                    a.get("rmse")
                        .or_else(|| a.get("train_rmse"))
                        .and_then(toolproto::Json::as_f64)
                })
                .is_some_and(f64::is_finite);
        aggregate.add(&trace, false, correct);
        traces.push(trace);
    }
    CellOutcome { aggregate, traces }
}

/// The token cost of routing the full house table through an idealized
/// LLM twice (the paper's ≥1.5M-token lower bound for PG-MCP with an
/// unlimited context window).
pub(crate) fn idealized_pg_mcp_tokens(rows: usize, seed: u64) -> usize {
    let db = crate::housing::build_database(rows, seed);
    let mut s = db.session("admin").expect("admin");
    let result = s.execute_sql("SELECT * FROM house").expect("house exists");
    // The idealized agent routes the stock server's verbose object-rows.
    let payload = bridgescope_core::bridge::result_to_output_verbose(result)
        .value
        .to_compact();
    2 * llmsim::tokens::estimate(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bird;
    use llmsim::Outcome;

    fn strict(profile: LlmProfile) -> LlmProfile {
        LlmProfile {
            schema_hallucination_rate: 0.0,
            predicate_error_rate: 0.0,
            privilege_awareness: 1.0,
            spurious_abort_rate: 0.0,
            sql_accuracy: 1.0,
            ..profile
        }
    }

    #[test]
    fn bridgescope_admin_read_cell_runs_clean() {
        let bench = bird::generate(5);
        let cell = BirdCell {
            toolkit: Toolkit::BridgeScope,
            profile: strict(LlmProfile::gpt4o()),
            role: Role::Administrator,
            class: TaskClass::Read,
            limit: Some(10),
            seed: 1,
        };
        let out = run_bird_cell(&bench, &cell);
        assert_eq!(out.aggregate.runs, 10);
        assert_eq!(out.aggregate.completion_rate(), 1.0);
        assert_eq!(out.aggregate.accuracy(), 1.0, "strict profile + gold SQL");
        // Reads need 3 calls + occasional get_value.
        let avg = out.aggregate.avg_llm_calls();
        assert!((3.0..4.0).contains(&avg), "avg calls {avg}");
    }

    #[test]
    fn bridgescope_write_cell_uses_transactions() {
        let bench = bird::generate(5);
        let cell = BirdCell {
            toolkit: Toolkit::BridgeScope,
            profile: strict(LlmProfile::gpt4o()),
            role: Role::Administrator,
            class: TaskClass::Write,
            limit: Some(8),
            seed: 1,
        };
        let out = run_bird_cell(&bench, &cell);
        assert_eq!(out.aggregate.txn_initiation_rate(), 1.0);
        assert_eq!(out.aggregate.accuracy(), 1.0);
    }

    #[test]
    fn pg_mcp_write_cell_rarely_uses_transactions() {
        let bench = bird::generate(5);
        let cell = BirdCell {
            toolkit: Toolkit::PgMcp,
            profile: strict(LlmProfile::gpt4o()),
            role: Role::Administrator,
            class: TaskClass::Write,
            limit: Some(8),
            seed: 1,
        };
        let out = run_bird_cell(&bench, &cell);
        assert!(out.aggregate.txn_initiation_rate() < 0.5);
        // Still completes the work (autocommit).
        assert!(out.aggregate.completion_rate() > 0.8);
    }

    #[test]
    fn infeasible_cells_abort_early_with_bridgescope() {
        let bench = bird::generate(5);
        let bs = run_bird_cell(
            &bench,
            &BirdCell {
                toolkit: Toolkit::BridgeScope,
                profile: strict(LlmProfile::claude4()),
                role: Role::Normal,
                class: TaskClass::Write,
                limit: Some(10),
                seed: 1,
            },
        );
        assert_eq!(bs.aggregate.accuracy(), 1.0, "all aborted correctly");
        assert!(bs.aggregate.avg_llm_calls() <= 2.0, "prompt abort");
        let pg = run_bird_cell(
            &bench,
            &BirdCell {
                toolkit: Toolkit::PgMcp,
                profile: strict(LlmProfile::claude4()),
                role: Role::Normal,
                class: TaskClass::Write,
                limit: Some(10),
                seed: 1,
            },
        );
        assert!(
            pg.aggregate.avg_llm_calls() > bs.aggregate.avg_llm_calls(),
            "PG-MCP burns more calls on infeasible tasks: {} vs {}",
            pg.aggregate.avg_llm_calls(),
            bs.aggregate.avg_llm_calls()
        );
        assert!(pg.aggregate.avg_tokens() > bs.aggregate.avg_tokens());
    }

    #[test]
    fn nl2ml_bridgescope_completes_where_pg_mcp_overflows() {
        // Shrunken window stands in for the paper's full 20,000-row / 128k
        // configuration: the table payload exceeds the window once it must
        // transit the LLM, while BridgeScope's proxy never carries it.
        let tiny_window = LlmProfile {
            context_window: 12_000,
            ..strict(LlmProfile::gpt4o())
        };
        let bs = run_nl2ml(&Nl2mlConfig {
            toolkit: Toolkit::BridgeScope,
            profile: tiny_window.clone(),
            rows: 2_000,
            limit: Some(6),
            seed: 2,
        });
        assert_eq!(bs.aggregate.completion_rate(), 1.0);
        assert_eq!(bs.aggregate.avg_llm_calls(), 3.0, "schema + proxy + final");

        let pg = run_nl2ml(&Nl2mlConfig {
            toolkit: Toolkit::PgMcp,
            profile: tiny_window,
            rows: 2_000,
            limit: Some(6),
            seed: 2,
        });
        assert_eq!(pg.aggregate.completion_rate(), 0.0);
        assert!(pg
            .traces
            .iter()
            .all(|t| t.outcome == Outcome::ContextOverflow));
    }

    #[test]
    fn nl2ml_sampled_pg_mcp_completes_but_costs_more() {
        let s = run_nl2ml(&Nl2mlConfig {
            toolkit: Toolkit::PgMcp,
            profile: strict(LlmProfile::gpt4o()),
            rows: 20,
            limit: Some(6),
            seed: 2,
        });
        assert_eq!(s.aggregate.completion_rate(), 1.0);
        assert!(s.aggregate.avg_llm_calls() > 3.0);
        let bs = run_nl2ml(&Nl2mlConfig {
            toolkit: Toolkit::BridgeScope,
            profile: strict(LlmProfile::gpt4o()),
            rows: 20,
            limit: Some(6),
            seed: 2,
        });
        assert!(s.aggregate.avg_llm_calls() > bs.aggregate.avg_llm_calls());
    }

    #[test]
    fn observed_nl2ml_run_links_task_to_proxy_spans() {
        let obs = Obs::in_memory();
        let out = run_nl2ml_observed(
            &Nl2mlConfig {
                toolkit: Toolkit::BridgeScope,
                profile: strict(LlmProfile::gpt4o()),
                rows: 50,
                limit: Some(2),
                seed: 2,
            },
            &obs,
        );
        assert_eq!(out.aggregate.completion_rate(), 1.0);
        let snap = obs.snapshot();
        obs::validate_tree(&snap.spans).unwrap();
        assert_eq!(
            snap.metrics.counter("llm.calls"),
            out.aggregate.llm_calls as u64
        );
        // The proxy moved the table without it transiting the LLM.
        assert!(snap.metrics.counter("proxy.units") >= 2);
        assert!(snap.metrics.counter("proxy.rows_moved") > 0);
        // Full chain present: task → llm:call → tool:proxy → proxy:unit.
        let by_id = |id: u64| snap.spans.iter().find(|sp| sp.id == id).unwrap();
        let unit = snap
            .spans
            .iter()
            .find(|sp| sp.name == "proxy:unit")
            .expect("proxy unit span");
        let tool = by_id(unit.parent.expect("unit has parent"));
        assert_eq!(tool.name, "tool:proxy");
        let llm = by_id(tool.parent.expect("tool has parent"));
        assert_eq!(llm.name, "llm:call");
        let task = by_id(llm.parent.expect("llm call has parent"));
        assert_eq!(task.name, "task");
        assert!(task.parent.is_none());
    }

    #[test]
    fn idealized_bound_scales_with_rows() {
        let small = idealized_pg_mcp_tokens(100, 3);
        let big = idealized_pg_mcp_tokens(1_000, 3);
        assert!(big > small * 8);
        // At the paper's 20,000 rows the bound is in its ≥1.5M-token regime.
        let full = idealized_pg_mcp_tokens(20_000, 42);
        assert!(full >= 1_500_000, "{full}");
    }

    #[test]
    fn task_seed_is_stable_and_id_sensitive() {
        assert_eq!(task_seed(1, "a"), task_seed(1, "a"));
        assert_ne!(task_seed(1, "a"), task_seed(1, "b"));
        assert_ne!(task_seed(1, "a"), task_seed(2, "a"));
    }
}
