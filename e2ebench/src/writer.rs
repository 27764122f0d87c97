//! The `durable_write` transaction generator and the model its output is
//! checked against.
//!
//! Transactions are shaped like the BIRD-Ext gold write templates on the
//! retail tables: `begin`, one to three DML statements, a verifying
//! `select`, `commit`. Every key is generated here and lies above the
//! seeded data, so nothing conflicts with the concurrent reader; each
//! transaction inserts one new row and, once 64 of its own rows are live,
//! deletes its oldest, so table size is stationary.

use crate::check::{digest, Call, Expect, Kind};
use minidb::{Database, QueryResult, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use toolproto::Json;

/// First generated key; BIRD-Ext seeds and gold tasks stay below 200,000.
const FIRST_ID: i64 = 1_000_000;
/// Own rows kept live per table.
const LIVE_ROWS: usize = 64;

struct Table {
    name: &'static str,
    key: &'static str,
    /// Column list and the literals after key, store and amount.
    insert_columns: &'static str,
    insert_tail: &'static str,
    seeded_rows: usize,
}

const TABLES: [Table; 2] = [
    Table {
        name: "brand_a_sales",
        key: "sale_id",
        insert_columns: "sale_id, store_id, amount, day, category, clerk, channel",
        insert_tail: "'2026-07-01', 'women''s wear', 'Clerk 3', 'online'",
        seeded_rows: 250,
    },
    Table {
        name: "brand_a_refunds",
        key: "refund_id",
        insert_columns: "refund_id, store_id, amount, day, reason",
        insert_tail: "'2026-07-01', 'returned'",
        seeded_rows: 80,
    },
];

/// Generator state: the rows each table must hold once every generated
/// transaction has committed.
pub struct Writer {
    rng: SmallRng,
    next_id: i64,
    txns: u64,
    /// Own live rows per table, oldest first (ascending key).
    live: [VecDeque<(i64, f64)>; 2],
    /// Remaining calls of the transaction in flight.
    pending: VecDeque<Call>,
}

/// An amount with two decimals, as the exact `f64` its SQL literal parses to.
fn amount(rng: &mut SmallRng) -> (String, f64) {
    let text = format!("{}.{:02}", rng.gen_range(5..500), rng.gen_range(0..100));
    let value = text.parse().expect("decimal literal");
    (text, value)
}

fn sql_call(tool: &str, sql: String, kind: Kind, expect: Expect, rows: usize) -> Call {
    Call {
        tool: tool.to_owned(),
        args: Json::object([("sql", Json::str(sql))]),
        kind,
        expect,
        rows,
    }
}

fn affected_one() -> Expect {
    Expect::Value(digest(&Json::object([("affected", Json::num(1.0))])))
}

fn bare(tool: &str, kind: Kind) -> Call {
    Call {
        tool: tool.to_owned(),
        args: Json::object(Vec::<(String, Json)>::new()),
        kind,
        expect: Expect::Ok,
        rows: 0,
    }
}

impl Writer {
    /// A generator drawing every parameter from `seed`.
    pub fn new(seed: u64) -> Writer {
        Writer {
            rng: SmallRng::seed_from_u64(seed ^ 0x077e_17e5),
            next_id: FIRST_ID,
            txns: 0,
            live: [VecDeque::new(), VecDeque::new()],
            pending: VecDeque::new(),
        }
    }

    /// Whether the last call handed out ended a transaction.
    pub fn between_transactions(&self) -> bool {
        self.pending.is_empty()
    }

    /// Transactions generated so far.
    pub fn transactions(&self) -> u64 {
        self.txns
    }

    /// The next call; generates a new transaction when the last one ended.
    pub fn next_call(&mut self) -> Call {
        if self.pending.is_empty() {
            self.generate();
        }
        self.pending.pop_front().expect("generated transaction")
    }

    fn generate(&mut self) {
        let t = (self.txns % 2) as usize;
        let table = &TABLES[t];
        self.txns += 1;
        let id = self.next_id;
        self.next_id += 1;
        let store = self.rng.gen_range(0..8);
        let (text, value) = amount(&mut self.rng);
        self.pending.push_back(bare("begin", Kind::Begin));
        self.pending.push_back(sql_call(
            "insert",
            format!(
                "INSERT INTO {} ({}) VALUES ({id}, {store}, {text}, {})",
                table.name, table.insert_columns, table.insert_tail
            ),
            Kind::Dml,
            affected_one(),
            0,
        ));
        if !self.live[t].is_empty() && self.rng.gen_bool(0.5) {
            let i = self.rng.gen_range(0..self.live[t].len());
            let (text, value) = amount(&mut self.rng);
            let row = &mut self.live[t][i];
            row.1 = value;
            self.pending.push_back(sql_call(
                "update",
                format!(
                    "UPDATE {} SET amount = {text} WHERE {} = {}",
                    table.name, table.key, row.0
                ),
                Kind::Dml,
                affected_one(),
                0,
            ));
        }
        if self.live[t].len() >= LIVE_ROWS {
            let (old, _) = self.live[t].pop_front().expect("non-empty");
            self.pending.push_back(sql_call(
                "delete",
                format!("DELETE FROM {} WHERE {} = {old}", table.name, table.key),
                Kind::Dml,
                affected_one(),
                0,
            ));
        }
        self.live[t].push_back((id, value));
        // The transaction reads its own write back before committing.
        let expected = Json::object([
            (
                "columns",
                Json::array([Json::str(table.key), Json::str("amount")]),
            ),
            (
                "rows",
                Json::array([Json::array([Json::num(id as f64), Json::num(value)])]),
            ),
        ]);
        self.pending.push_back(sql_call(
            "select",
            format!(
                "SELECT {}, amount FROM {} WHERE {} = {id}",
                table.key, table.name, table.key
            ),
            Kind::Select,
            Expect::Value(digest(&expected)),
            1,
        ));
        self.pending.push_back(bare("commit", Kind::Commit));
    }

    /// Compare `db` with the model: every generated row present with its
    /// last amount, no other generated key, the seeded rows untouched.
    /// Returns one message per discrepancy.
    pub fn verify(&self, db: &Database) -> Vec<String> {
        assert!(self.between_transactions(), "verify mid-transaction");
        let mut errors = Vec::new();
        let mut session = db.session("admin").expect("admin exists");
        for (table, live) in TABLES.iter().zip(&self.live) {
            let sql = format!(
                "SELECT {k}, amount FROM {t} WHERE {k} >= {FIRST_ID} ORDER BY {k}",
                k = table.key,
                t = table.name
            );
            let want: Vec<Vec<Value>> = live
                .iter()
                .map(|(id, a)| vec![Value::Int(*id), Value::Float(*a)])
                .collect();
            match session.execute_sql(&sql) {
                Ok(QueryResult::Rows { rows, .. }) if rows == want => {}
                Ok(QueryResult::Rows { rows, .. }) => errors.push(format!(
                    "{}: reopened database holds {} generated rows, model {} (or amounts differ)",
                    table.name,
                    rows.len(),
                    want.len()
                )),
                other => errors.push(format!("{}: {other:?}", table.name)),
            }
            let sql = format!(
                "SELECT COUNT(*) FROM {} WHERE {} < {FIRST_ID}",
                table.name, table.key
            );
            match session.execute_sql(&sql) {
                Ok(QueryResult::Rows { rows, .. })
                    if rows == [vec![Value::Int(table.seeded_rows as i64)]] => {}
                other => errors.push(format!("{}: seeded rows changed: {other:?}", table.name)),
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchkit::roles::install_roles;
    use bridgescope_core::{BridgeScopeServer, SecurityPolicy};

    #[test]
    fn generated_transactions_pass_their_own_oracle_and_the_model() {
        let db = benchkit::bird::build_database(7);
        let tables: Vec<String> = db.table_names();
        install_roles(&db, &tables);
        let server = BridgeScopeServer::build(
            &db,
            "alice_admin",
            SecurityPolicy::default(),
            &toolproto::Registry::new(),
        )
        .unwrap();
        let mut w = Writer::new(7);
        let mut kinds = std::collections::BTreeMap::new();
        while w.transactions() < 200 || !w.between_transactions() {
            let call = w.next_call();
            let result = server.registry.call(&call.tool, &call.args);
            assert!(
                call.accepts(&result),
                "{} {:?} -> {result:?}",
                call.tool,
                call.args
            );
            *kinds.entry(call.kind).or_insert(0u32) += 1;
        }
        assert_eq!(w.verify(&db), Vec::<String>::new());
        assert_eq!(kinds[&Kind::Commit], 200);
        // One to three DML statements per transaction.
        assert!(kinds[&Kind::Dml] > 200 && kinds[&Kind::Dml] <= 600);
        assert_eq!(db.table_rows("brand_a_sales").unwrap(), 250 + LIVE_ROWS);
        // A lost commit is noticed.
        let mut s = db.session("admin").unwrap();
        s.execute_sql(&format!(
            "DELETE FROM brand_a_refunds WHERE refund_id = {}",
            w.next_id - 1
        ))
        .unwrap();
        assert_eq!(w.verify(&db).len(), 1);
    }
}
