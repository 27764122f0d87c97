//! Crash-recovery differential harness.
//!
//! Exercises the durable storage engine the way a kill -9 would: seed a
//! durable database and a volatile reference with identical BIRD-Ext
//! content, replay gold write-task SQL against both, and at injected kill
//! points *drop the durable engine without a checkpoint*, reopen it (WAL
//! replay), and assert its [`Database::state_fingerprint`] equals the
//! volatile reference at the same statement prefix. A final check crashes
//! mid-transaction (`BEGIN` + write, no `COMMIT`) and asserts recovery
//! leaves no trace of the uncommitted work.
//!
//! Statements that fail (gold tasks assume a pristine database; replayed
//! cumulatively some conflict) are part of the differential too: both
//! engines must agree on success vs. failure, and a failed statement must
//! leave both fingerprints untouched.

use crate::bird;
use minidb::{Database, DbResult, DurabilityConfig, FsyncPolicy, RecoveryReport};
use std::path::PathBuf;

/// Configuration for one crash-lab run.
#[derive(Debug, Clone)]
pub struct CrashLabConfig {
    /// Directory for the durable engine's WAL + snapshot. Created (and
    /// wiped) by [`run`].
    pub dir: PathBuf,
    /// Seed for the BIRD-Ext content and task generation.
    pub seed: u64,
    /// Cap on workload statements (0 = the full write-task gold set).
    pub(crate) max_statements: usize,
    /// Crash after every `kill_every`-th statement (minimum 1).
    pub(crate) kill_every: usize,
    /// Fsync policy for the durable engine under test.
    pub fsync: FsyncPolicy,
}

impl CrashLabConfig {
    /// Defaults: seed 7, 24 statements, crash after every statement,
    /// fsync-on-commit.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CrashLabConfig {
            dir: dir.into(),
            seed: 7,
            max_statements: 24,
            kill_every: 1,
            fsync: FsyncPolicy::Commit,
        }
    }
}

/// Outcome of one injected crash + recovery.
#[derive(Debug, Clone)]
pub struct CrashPoint {
    /// 1-based index of the last workload statement executed before the
    /// crash.
    pub(crate) after_statement: usize,
    /// The statement text (truncated for reporting).
    pub statement: String,
    /// Transactions replayed from the WAL on reopen.
    pub replayed_txns: u64,
    /// Whether the recovered fingerprint matched the volatile reference.
    pub matched: bool,
}

/// Full report of a crash-lab run.
#[derive(Debug, Clone)]
pub struct CrashLabReport {
    /// Number of workload statements executed.
    pub statements: usize,
    /// Statements where durable and volatile disagreed on success/failure.
    pub(crate) outcome_mismatches: usize,
    /// One entry per injected crash.
    pub points: Vec<CrashPoint>,
    /// Whether the mid-transaction crash left no trace after recovery.
    pub(crate) mid_txn_clean: bool,
}

impl CrashLabReport {
    /// True when every kill point recovered to the committed state, the
    /// engines agreed on every statement outcome, and the mid-transaction
    /// crash left no trace.
    pub fn passed(&self) -> bool {
        self.outcome_mismatches == 0 && self.mid_txn_clean && self.points.iter().all(|p| p.matched)
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "crashlab: {} statements, {} kill points, {} outcome mismatches, mid-txn clean: {}\n",
            self.statements,
            self.points.len(),
            self.outcome_mismatches,
            self.mid_txn_clean,
        ));
        for p in &self.points {
            out.push_str(&format!(
                "  kill after #{:<3} replayed_txns={:<4} {} {}\n",
                p.after_statement,
                p.replayed_txns,
                if p.matched { "MATCH" } else { "DIVERGED" },
                p.statement,
            ));
        }
        out
    }
}

/// The gold SQL of every BIRD-Ext write task (insert, update, delete),
/// in task order. This is the crash workload.
pub(crate) fn write_workload(seed: u64, limit: usize) -> Vec<String> {
    let ext = bird::generate(seed);
    let mut stmts = Vec::new();
    for task in ext.tasks.iter().filter(|t| t.is_write()) {
        for step in &task.spec.steps {
            stmts.push(step.gold.clone());
        }
    }
    if limit > 0 {
        stmts.truncate(limit);
    }
    stmts
}

fn open_durable(config: &CrashLabConfig) -> DbResult<(Database, RecoveryReport)> {
    let durability = DurabilityConfig::new(config.dir.clone())
        .with_fsync(config.fsync)
        // No auto-snapshots: the whole point is recovering through the WAL.
        .with_snapshot_every(0);
    Database::open(&durability)
}

/// Run the crash-recovery differential.
pub fn run(config: &CrashLabConfig) -> DbResult<CrashLabReport> {
    if config.dir.exists() {
        let _ = std::fs::remove_dir_all(&config.dir);
    }
    let workload = write_workload(config.seed, config.max_statements);
    let kill_every = config.kill_every.max(1);

    // Identical seeds, two engines: the volatile reference is the oracle.
    let reference = Database::new();
    bird::build_database_on(&reference, config.seed);
    let (mut durable, _) = open_durable(config)?;
    bird::build_database_on(&durable, config.seed);

    let mut points = Vec::new();
    let mut outcome_mismatches = 0usize;
    for (i, stmt) in workload.iter().enumerate() {
        let d = durable.session("admin")?.execute_sql(stmt);
        let v = reference.session("admin")?.execute_sql(stmt);
        if d.is_ok() != v.is_ok() {
            outcome_mismatches += 1;
        }
        if (i + 1) % kill_every == 0 {
            // Crash: drop every handle to the durable engine without a
            // checkpoint, then recover from snapshot + WAL alone.
            drop(durable);
            let (reopened, report) = open_durable(config)?;
            points.push(CrashPoint {
                after_statement: i + 1,
                statement: truncate_stmt(stmt),
                replayed_txns: report.replayed_txns,
                matched: reopened.state_fingerprint() == reference.state_fingerprint(),
            });
            durable = reopened;
        }
    }
    let statements = workload.len();

    // Mid-transaction crash: BEGIN + write, then vanish before COMMIT.
    // `mem::forget` skips the session's rollback-on-drop, so recovery sees
    // an uncommitted WAL group exactly as a killed process would leave it.
    let before = reference.state_fingerprint();
    {
        let mut s = durable.session("admin")?;
        s.execute_sql("BEGIN")?;
        s.execute_sql("INSERT INTO stores VALUES (9901, 'Crash Store', 'west', 'Nobody', 2026)")?;
        std::mem::forget(s);
    }
    drop(durable);
    let (reopened, _) = open_durable(config)?;
    let mid_txn_clean = reopened.state_fingerprint() == before;

    Ok(CrashLabReport {
        statements,
        outcome_mismatches,
        points,
        mid_txn_clean,
    })
}

fn truncate_stmt(stmt: &str) -> String {
    const MAX: usize = 72;
    if stmt.len() <= MAX {
        stmt.to_owned()
    } else {
        let mut end = MAX;
        while !stmt.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &stmt[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "crashlab-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One stage of the interleaved-commit crash scenario.
    #[derive(Debug)]
    struct InterleavedStage {
        /// Which kill point this is (see [`interleaved_commits`]).
        name: &'static str,
        /// Whether recovery matched the reference at this commit prefix.
        matched: bool,
    }

    /// Crash-recovery with *two concurrent committing transactions* (MVCC):
    /// sessions A and B both open explicit transactions against the same
    /// durable database and write disjoint rows; the harness kills the engine
    /// at three points along the interleaving and asserts recovery equals the
    /// committed-timestamp prefix *exactly* — uncommitted workspaces leave no
    /// trace, and each commit becomes durable the instant its WAL group
    /// append returns:
    ///
    /// 1. `both-open`: A and B have written but neither committed → recovery
    ///    equals the base state.
    /// 2. `a-committed`: A committed, B still open → recovery equals base + A
    ///    (B's writes absent even though they happened *before* A's commit in
    ///    wall-clock order — commit timestamps, not write order, decide).
    /// 3. `both-committed`: A then B committed → recovery equals base + A + B.
    fn interleaved_commits(config: &CrashLabConfig) -> DbResult<Vec<InterleavedStage>> {
        if config.dir.exists() {
            let _ = std::fs::remove_dir_all(&config.dir);
        }
        let setup = "CREATE TABLE pairs (id INTEGER PRIMARY KEY, who TEXT NOT NULL)";
        let a_sql = "INSERT INTO pairs VALUES (1, 'a')";
        let b_sql = "INSERT INTO pairs VALUES (2, 'b')";

        // Reference fingerprints for each commit prefix, from a volatile twin.
        let fingerprint_after = |commits: &[&str]| -> DbResult<String> {
            let reference = Database::new();
            reference.session("admin")?.execute_sql(setup)?;
            for sql in commits {
                reference.session("admin")?.execute_sql(sql)?;
            }
            Ok(reference.state_fingerprint())
        };
        let base_fp = fingerprint_after(&[])?;
        let a_fp = fingerprint_after(&[a_sql])?;
        let ab_fp = fingerprint_after(&[a_sql, b_sql])?;

        let mut stages = Vec::new();
        // Each stage replays the interleaving from scratch up to its kill
        // point, so every recovery exercises the full WAL history.
        for (name, commits, expected) in [
            ("both-open", 0, &base_fp),
            ("a-committed", 1, &a_fp),
            ("both-committed", 2, &ab_fp),
        ] {
            let _ = std::fs::remove_dir_all(&config.dir);
            let (durable, _) = open_durable(config)?;
            durable.session("admin")?.execute_sql(setup)?;
            let mut a = durable.session("admin")?;
            let mut b = durable.session("admin")?;
            // Interleave: both transactions open and write before either
            // commits. B writes first; A commits first — commit timestamps,
            // not write order, decide what recovery restores.
            a.execute_sql("BEGIN")?;
            b.execute_sql("BEGIN")?;
            b.execute_sql(b_sql)?;
            a.execute_sql(a_sql)?;
            if commits >= 1 {
                a.execute_sql("COMMIT")?;
            }
            if commits >= 2 {
                b.execute_sql("COMMIT")?;
            }
            // Kill: forget the sessions (skipping rollback-on-drop, as a dead
            // process would) and drop the engine without a checkpoint.
            std::mem::forget(a);
            std::mem::forget(b);
            drop(durable);
            let (reopened, _) = open_durable(config)?;
            stages.push(InterleavedStage {
                name,
                matched: reopened.state_fingerprint() == *expected,
            });
        }
        let _ = std::fs::remove_dir_all(&config.dir);
        Ok(stages)
    }

    #[test]
    fn differential_passes_at_every_kill_point() {
        let dir = tmpdir("diff");
        let mut config = CrashLabConfig::new(&dir);
        config.max_statements = 10;
        let report = run(&config).expect("crashlab runs");
        assert_eq!(report.statements, 10);
        assert_eq!(report.points.len(), 10);
        assert!(report.passed(), "report:\n{}", report.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strided_kill_points_and_render() {
        let dir = tmpdir("stride");
        let mut config = CrashLabConfig::new(&dir);
        config.max_statements = 9;
        config.kill_every = 3;
        config.fsync = FsyncPolicy::Off;
        let report = run(&config).expect("crashlab runs");
        assert_eq!(report.points.len(), 3);
        assert!(report.passed(), "report:\n{}", report.render());
        assert!(report.render().contains("kill after"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_commits_recover_exact_prefix() {
        let dir = tmpdir("interleave");
        let config = CrashLabConfig::new(&dir);
        let stages = interleaved_commits(&config).expect("interleaved crashlab runs");
        assert_eq!(stages.len(), 3);
        assert!(stages.iter().all(|s| s.matched), "stages: {stages:#?}");
        assert_eq!(stages[2].name, "both-committed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_is_nonempty_and_bounded() {
        let w = write_workload(7, 5);
        assert_eq!(w.len(), 5);
        let full = write_workload(7, 0);
        assert!(full.len() >= 150, "150 write tasks, one+ statement each");
    }
}
