//! Write-ahead log: logical redo records, checksummed frames, and the
//! durable storage engine.
//!
//! The WAL is *logical redo*: each record names the operation at the row /
//! catalog level (insert row 7 into `t`, create table with this schema, …)
//! rather than physical pages — the in-memory substrate has no pages, and
//! logical records replay through the exact same `TableData` entry points
//! that maintain secondary indexes, so replayed state is index-consistent
//! by construction. Row ids are logged explicitly and replay uses
//! `TableData::restore`, so every later record that addresses a row by id
//! stays valid and recovered id allocation matches the original run.
//!
//! On disk the log is a sequence of frames:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! one [`WalRecord`] per frame, grouped `Begin … records … Commit` per
//! transaction. Recovery scans frames until the first torn or corrupt one
//! (short read, impossible length, or CRC mismatch), drops everything from
//! there on, truncates the file back to the valid prefix, and applies only
//! transactions whose `Commit` frame survived — so a crash mid-append never
//! yields more than the committed prefix, and never a panic.

use super::mem::{RowId, TableData};
use super::snapshot;
use super::{DurabilityConfig, RecoveryReport, StorageEngine};
use crate::error::{DbError, DbResult};
use crate::exec::DbState;
use crate::privilege::PrivilegeCatalog;
use crate::schema::{Column, ColumnStats, ForeignKey, IndexDef, TableSchema, TableStats, ViewDef};
use crate::value::{Row, Value};
use obs::Obs;
use sqlkit::ast::{self, Action, TypeName};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// WAL file name inside the durability directory.
pub(crate) const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.db";

/// Frames longer than this are treated as torn garbage, not allocated.
const MAX_FRAME: u32 = 1 << 30;

/// When the write-ahead log is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync every commit before acknowledging it. A transaction is one
    /// WAL append, so this is also "fsync after every append".
    #[default]
    Commit,
    /// Never fsync; leave flushing to the OS. Data is still written to the
    /// OS on every commit, so a process kill loses nothing; a machine crash
    /// can.
    Off,
}

impl FsyncPolicy {
    /// Parse a CLI-style policy name: `commit` or `off`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "commit" => Some(FsyncPolicy::Commit),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }
}

/// One logical redo record. `Begin`/`Commit`/`Rollback` frame transactions;
/// everything else replays a committed mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Transaction start.
    Begin {
        /// Engine-assigned transaction id (monotonic).
        txn: u64,
    },
    /// Transaction commit — the durability point. Records of transactions
    /// without a surviving `Commit` frame are never applied.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Transaction rollback (written only defensively; rolled-back work is
    /// normally discarded before it reaches the log).
    Rollback {
        /// Transaction id.
        txn: u64,
    },
    /// A row was inserted at a specific id.
    RowInsert {
        /// Table name.
        table: String,
        /// Row id (replay restores at exactly this id).
        rid: RowId,
        /// The committed row image.
        row: Row,
    },
    /// A row was overwritten in place.
    RowUpdate {
        /// Table name.
        table: String,
        /// Row id.
        rid: RowId,
        /// The committed (post-update) row image.
        row: Row,
    },
    /// A row was deleted.
    RowDelete {
        /// Table name.
        table: String,
        /// Row id.
        rid: RowId,
    },
    /// A table was created (schema as of creation; auto indexes rebuilt on
    /// replay).
    CreateTable {
        /// The created schema.
        schema: TableSchema,
    },
    /// A table was dropped.
    DropTable {
        /// Table name.
        name: String,
    },
    /// A view was created. The defining query travels as SQL text (the AST
    /// round-trips through the formatter/parser; see DESIGN.md §9).
    CreateView {
        /// View name.
        name: String,
        /// Fixed output column names.
        columns: Vec<String>,
        /// `format_select` rendering of the defining query.
        query_sql: String,
    },
    /// A view was dropped.
    DropView {
        /// View name.
        name: String,
    },
    /// A secondary index was created.
    CreateIndex {
        /// Table name.
        table: String,
        /// The index definition (physical kind derives from it).
        def: IndexDef,
    },
    /// ALTER TABLE, logged as a full re-image of the table: the post-ALTER
    /// schema plus every row at its (preserved) id. Mirrors the snapshot
    /// undo the executor uses — trivially correct for every ALTER shape,
    /// and ALTERs are rare enough that the log volume is irrelevant.
    AlterRewrite {
        /// Table name before the ALTER (differs from `schema.name` for
        /// RENAME; replay repoints inbound foreign keys like the catalog
        /// rename does).
        old_name: String,
        /// Post-ALTER schema.
        schema: TableSchema,
        /// Post-ALTER slot count (allocation state).
        slot_count: usize,
        /// Post-ALTER rows at their ids.
        rows: Vec<(RowId, Row)>,
        /// Post-ALTER free list, in stack order.
        free: Vec<RowId>,
    },
    /// A user was created.
    CreateUser {
        /// User name.
        name: String,
        /// Whether the user is a superuser.
        superuser: bool,
    },
    /// A privilege was granted.
    Grant {
        /// Grantee.
        user: String,
        /// Action granted.
        action: Action,
        /// Object granted on.
        object: String,
    },
    /// A privilege was revoked.
    Revoke {
        /// User revoked from.
        user: String,
        /// Action revoked.
        action: Action,
        /// Object revoked on.
        object: String,
    },
    /// All data actions granted on one object.
    GrantAll {
        /// Grantee.
        user: String,
        /// Object granted on.
        object: String,
    },
    /// All data actions revoked on one object.
    RevokeAll {
        /// User revoked from.
        user: String,
        /// Object revoked on.
        object: String,
    },
    /// `ANALYZE` installed optimizer statistics for one table. Replay is
    /// tolerant: if the table no longer exists the record is skipped (stats
    /// are advisory, never load-bearing).
    Analyze {
        /// Table name.
        table: String,
        /// The collected statistics.
        stats: TableStats,
    },
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, table-driven) — vendored; offline build policy forbids
// pulling a crate for 20 lines.
// ---------------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// IEEE CRC-32 of a byte slice.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Binary codec. Hand-rolled (no serde under the offline build policy):
// little-endian integers, u32-length-prefixed strings and sequences.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_bool(buf: &mut Vec<u8>, b: bool) {
    buf.push(u8::from(b));
}

pub(crate) fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(2);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.push(4);
            put_bool(buf, *b);
        }
    }
}

pub(crate) fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_u32(buf, row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

pub(crate) fn put_strs(buf: &mut Vec<u8>, items: &[String]) {
    put_u32(buf, items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

fn type_tag(ty: TypeName) -> u8 {
    match ty {
        TypeName::Integer => 0,
        TypeName::Float => 1,
        TypeName::Text => 2,
        TypeName::Boolean => 3,
    }
}

pub(crate) fn action_tag(a: Action) -> u8 {
    match a {
        Action::Select => 0,
        Action::Insert => 1,
        Action::Update => 2,
        Action::Delete => 3,
        Action::Create => 4,
        Action::Drop => 5,
        Action::Alter => 6,
        Action::GrantRevoke => 7,
        Action::Transaction => 8,
    }
}

pub(crate) fn put_schema(buf: &mut Vec<u8>, schema: &TableSchema) {
    put_str(buf, &schema.name);
    put_u32(buf, schema.columns.len() as u32);
    for c in &schema.columns {
        put_str(buf, &c.name);
        buf.push(type_tag(c.ty));
        put_bool(buf, c.not_null);
        put_bool(buf, c.unique);
        match &c.default {
            None => put_bool(buf, false),
            Some(v) => {
                put_bool(buf, true);
                put_value(buf, v);
            }
        }
    }
    put_strs(buf, &schema.primary_key);
    put_u32(buf, schema.uniques.len() as u32);
    for u in &schema.uniques {
        put_strs(buf, u);
    }
    put_u32(buf, schema.foreign_keys.len() as u32);
    for fk in &schema.foreign_keys {
        put_strs(buf, &fk.columns);
        put_str(buf, &fk.foreign_table);
        put_strs(buf, &fk.foreign_columns);
    }
    // CHECK expressions travel as SQL text; the formatter/parser pair
    // round-trips the AST exactly (verified by tests).
    put_u32(buf, schema.checks.len() as u32);
    for e in &schema.checks {
        put_str(buf, &sqlkit::format_expr(e));
    }
    put_u32(buf, schema.indexes.len() as u32);
    for ix in &schema.indexes {
        put_str(buf, &ix.name);
        put_strs(buf, &ix.columns);
        put_bool(buf, ix.unique);
    }
}

pub(crate) fn put_stats(buf: &mut Vec<u8>, stats: &TableStats) {
    put_u64(buf, stats.row_count);
    put_u32(buf, stats.columns.len() as u32);
    for c in &stats.columns {
        put_u64(buf, c.distinct);
        put_u64(buf, c.nulls);
    }
}

pub(crate) fn put_table_payload(
    buf: &mut Vec<u8>,
    slot_count: usize,
    rows: &[(RowId, Row)],
    free: &[RowId],
) {
    put_u64(buf, slot_count as u64);
    put_u32(buf, rows.len() as u32);
    for (rid, row) in rows {
        put_u64(buf, *rid as u64);
        put_row(buf, row);
    }
    put_u32(buf, free.len() as u32);
    for rid in free {
        put_u64(buf, *rid as u64);
    }
}

/// Cursor over encoded bytes; every read is bounds-checked and surfaces a
/// description instead of panicking (corrupt input must degrade to a typed
/// error).
/// Decoded table payload: `(slot_count, rows as (rid, row), free list)`.
pub(crate) type TablePayload = (usize, Vec<(RowId, Row)>, Vec<RowId>);

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, String> {
        Ok(self.u8()? != 0)
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    pub(crate) fn value(&mut self) -> Result<Value, String> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            2 => Value::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            3 => Value::Text(self.str()?),
            4 => Value::Bool(self.bool()?),
            t => return Err(format!("unknown value tag {t}")),
        })
    }

    pub(crate) fn row(&mut self) -> Result<Row, String> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.value()).collect()
    }

    pub(crate) fn strs(&mut self) -> Result<Vec<String>, String> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.str()).collect()
    }

    fn type_name(&mut self) -> Result<TypeName, String> {
        Ok(match self.u8()? {
            0 => TypeName::Integer,
            1 => TypeName::Float,
            2 => TypeName::Text,
            3 => TypeName::Boolean,
            t => return Err(format!("unknown type tag {t}")),
        })
    }

    pub(crate) fn action(&mut self) -> Result<Action, String> {
        Ok(match self.u8()? {
            0 => Action::Select,
            1 => Action::Insert,
            2 => Action::Update,
            3 => Action::Delete,
            4 => Action::Create,
            5 => Action::Drop,
            6 => Action::Alter,
            7 => Action::GrantRevoke,
            8 => Action::Transaction,
            t => return Err(format!("unknown action tag {t}")),
        })
    }

    pub(crate) fn schema(&mut self) -> Result<TableSchema, String> {
        let name = self.str()?;
        let ncols = self.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = self.str()?;
            let ty = self.type_name()?;
            let not_null = self.bool()?;
            let unique = self.bool()?;
            let default = if self.bool()? {
                Some(self.value()?)
            } else {
                None
            };
            columns.push(Column {
                name: cname,
                ty,
                not_null,
                unique,
                default,
            });
        }
        let primary_key = self.strs()?;
        let nuniques = self.u32()? as usize;
        let uniques = (0..nuniques)
            .map(|_| self.strs())
            .collect::<Result<Vec<_>, _>>()?;
        let nfks = self.u32()? as usize;
        let mut foreign_keys = Vec::with_capacity(nfks);
        for _ in 0..nfks {
            let columns = self.strs()?;
            let foreign_table = self.str()?;
            let foreign_columns = self.strs()?;
            foreign_keys.push(ForeignKey {
                columns,
                foreign_table,
                foreign_columns,
            });
        }
        let nchecks = self.u32()? as usize;
        let mut checks = Vec::with_capacity(nchecks);
        for _ in 0..nchecks {
            checks.push(parse_expr_sql(&self.str()?)?);
        }
        let nix = self.u32()? as usize;
        let mut indexes = Vec::with_capacity(nix);
        for _ in 0..nix {
            let name = self.str()?;
            let columns = self.strs()?;
            let unique = self.bool()?;
            indexes.push(IndexDef {
                name,
                columns,
                unique,
            });
        }
        Ok(TableSchema {
            name,
            columns,
            primary_key,
            uniques,
            foreign_keys,
            checks,
            indexes,
        })
    }

    pub(crate) fn stats(&mut self) -> Result<TableStats, String> {
        let row_count = self.u64()?;
        let ncols = self.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1 << 16));
        for _ in 0..ncols {
            let distinct = self.u64()?;
            let nulls = self.u64()?;
            columns.push(ColumnStats { distinct, nulls });
        }
        Ok(TableStats { row_count, columns })
    }

    pub(crate) fn table_payload(&mut self) -> Result<TablePayload, String> {
        let slot_count = self.u64()? as usize;
        let nrows = self.u32()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(1 << 20));
        for _ in 0..nrows {
            let rid = self.u64()? as usize;
            rows.push((rid, self.row()?));
        }
        let nfree = self.u32()? as usize;
        let free = (0..nfree)
            .map(|_| self.u64().map(|v| v as usize))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((slot_count, rows, free))
    }
}

/// Re-parse an expression serialized as SQL text. The parser has no public
/// expression entry point, so wrap it in `SELECT <expr>` and unwrap the
/// projection.
fn parse_expr_sql(text: &str) -> Result<ast::Expr, String> {
    let stmt = sqlkit::parse_statement(&format!("SELECT {text}"))
        .map_err(|e| format!("stored expression does not re-parse: {e}"))?;
    if let ast::Statement::Select(sel) = stmt {
        if let Some(ast::SelectItem::Expr { expr, .. }) = sel.items.into_iter().next() {
            return Ok(expr);
        }
    }
    Err(format!(
        "stored expression {text:?} did not yield a projection"
    ))
}

pub(crate) fn parse_select_sql(text: &str) -> Result<ast::Select, String> {
    match sqlkit::parse_statement(text) {
        Ok(ast::Statement::Select(sel)) => Ok(sel),
        Ok(_) => Err(format!("stored view query {text:?} is not a SELECT")),
        Err(e) => Err(format!("stored view query does not re-parse: {e}")),
    }
}

impl WalRecord {
    /// Serialize this record into `buf` (payload only, no frame header).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Begin { txn } => {
                buf.push(0);
                put_u64(buf, *txn);
            }
            WalRecord::Commit { txn } => {
                buf.push(1);
                put_u64(buf, *txn);
            }
            WalRecord::Rollback { txn } => {
                buf.push(2);
                put_u64(buf, *txn);
            }
            WalRecord::RowInsert { table, rid, row } => {
                buf.push(3);
                put_str(buf, table);
                put_u64(buf, *rid as u64);
                put_row(buf, row);
            }
            WalRecord::RowUpdate { table, rid, row } => {
                buf.push(4);
                put_str(buf, table);
                put_u64(buf, *rid as u64);
                put_row(buf, row);
            }
            WalRecord::RowDelete { table, rid } => {
                buf.push(5);
                put_str(buf, table);
                put_u64(buf, *rid as u64);
            }
            WalRecord::CreateTable { schema } => {
                buf.push(6);
                put_schema(buf, schema);
            }
            WalRecord::DropTable { name } => {
                buf.push(7);
                put_str(buf, name);
            }
            WalRecord::CreateView {
                name,
                columns,
                query_sql,
            } => {
                buf.push(8);
                put_str(buf, name);
                put_strs(buf, columns);
                put_str(buf, query_sql);
            }
            WalRecord::DropView { name } => {
                buf.push(9);
                put_str(buf, name);
            }
            WalRecord::CreateIndex { table, def } => {
                buf.push(10);
                put_str(buf, table);
                put_str(buf, &def.name);
                put_strs(buf, &def.columns);
                put_bool(buf, def.unique);
            }
            WalRecord::AlterRewrite {
                old_name,
                schema,
                slot_count,
                rows,
                free,
            } => {
                buf.push(11);
                put_str(buf, old_name);
                put_schema(buf, schema);
                put_table_payload(buf, *slot_count, rows, free);
            }
            WalRecord::CreateUser { name, superuser } => {
                buf.push(12);
                put_str(buf, name);
                put_bool(buf, *superuser);
            }
            WalRecord::Grant {
                user,
                action,
                object,
            } => {
                buf.push(13);
                put_str(buf, user);
                buf.push(action_tag(*action));
                put_str(buf, object);
            }
            WalRecord::Revoke {
                user,
                action,
                object,
            } => {
                buf.push(14);
                put_str(buf, user);
                buf.push(action_tag(*action));
                put_str(buf, object);
            }
            WalRecord::GrantAll { user, object } => {
                buf.push(15);
                put_str(buf, user);
                put_str(buf, object);
            }
            WalRecord::RevokeAll { user, object } => {
                buf.push(16);
                put_str(buf, user);
                put_str(buf, object);
            }
            WalRecord::Analyze { table, stats } => {
                buf.push(17);
                put_str(buf, table);
                put_stats(buf, stats);
            }
        }
    }

    /// Decode one record from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            0 => WalRecord::Begin { txn: r.u64()? },
            1 => WalRecord::Commit { txn: r.u64()? },
            2 => WalRecord::Rollback { txn: r.u64()? },
            3 => WalRecord::RowInsert {
                table: r.str()?,
                rid: r.u64()? as usize,
                row: r.row()?,
            },
            4 => WalRecord::RowUpdate {
                table: r.str()?,
                rid: r.u64()? as usize,
                row: r.row()?,
            },
            5 => WalRecord::RowDelete {
                table: r.str()?,
                rid: r.u64()? as usize,
            },
            6 => WalRecord::CreateTable {
                schema: r.schema()?,
            },
            7 => WalRecord::DropTable { name: r.str()? },
            8 => WalRecord::CreateView {
                name: r.str()?,
                columns: r.strs()?,
                query_sql: r.str()?,
            },
            9 => WalRecord::DropView { name: r.str()? },
            10 => WalRecord::CreateIndex {
                table: r.str()?,
                def: IndexDef {
                    name: r.str()?,
                    columns: r.strs()?,
                    unique: r.bool()?,
                },
            },
            11 => {
                let old_name = r.str()?;
                let schema = r.schema()?;
                let (slot_count, rows, free) = r.table_payload()?;
                WalRecord::AlterRewrite {
                    old_name,
                    schema,
                    slot_count,
                    rows,
                    free,
                }
            }
            12 => WalRecord::CreateUser {
                name: r.str()?,
                superuser: r.bool()?,
            },
            13 => WalRecord::Grant {
                user: r.str()?,
                action: r.action()?,
                object: r.str()?,
            },
            14 => WalRecord::Revoke {
                user: r.str()?,
                action: r.action()?,
                object: r.str()?,
            },
            15 => WalRecord::GrantAll {
                user: r.str()?,
                object: r.str()?,
            },
            16 => WalRecord::RevokeAll {
                user: r.str()?,
                object: r.str()?,
            },
            17 => WalRecord::Analyze {
                table: r.str()?,
                stats: r.stats()?,
            },
            t => return Err(format!("unknown WAL record tag {t}")),
        };
        if !r.is_done() {
            return Err("trailing bytes after WAL record".into());
        }
        Ok(rec)
    }
}

/// Append one framed record to `buf`.
pub fn frame(buf: &mut Vec<u8>, record: &WalRecord) {
    let mut payload = Vec::new();
    record.encode(&mut payload);
    put_u32(buf, payload.len() as u32);
    put_u32(buf, crc32(&payload));
    buf.extend_from_slice(&payload);
}

/// Result of scanning a WAL byte stream: the decodable record prefix, how
/// many bytes of it were valid frames, and whether a torn/corrupt tail was
/// dropped.
#[derive(Debug)]
pub struct WalScan {
    /// Records from the valid frame prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix.
    pub(crate) valid_len: usize,
    /// Whether anything after `valid_len` was dropped.
    pub torn: bool,
}

/// Scan frames until the first torn or corrupt one. Never panics: short
/// frames, impossible lengths, CRC mismatches, and undecodable payloads all
/// end the scan at the last good frame boundary.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME || bytes.len() - pos - 8 < len as usize {
            break; // torn tail: length field damaged or payload cut short
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            break; // corrupt frame
        }
        match WalRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break, // CRC-valid but undecodable: treat as corrupt
        }
        pos += 8 + len as usize;
    }
    WalScan {
        records,
        valid_len: pos,
        torn: pos != bytes.len(),
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Build table storage from persisted parts: restore rows at their ids,
/// then rebuild automatic and named indexes from the schema, then install
/// the persisted allocation state.
pub(crate) fn rebuild_table(
    schema: &TableSchema,
    slot_count: usize,
    rows: Vec<(RowId, Row)>,
    free: Vec<RowId>,
) -> DbResult<TableData> {
    let mut data = TableData::new();
    for (rid, row) in rows {
        if data.get(rid).is_some() {
            return Err(DbError::Storage(format!(
                "duplicate row id {rid} for table \"{}\" in persisted state",
                schema.name
            )));
        }
        data.restore(rid, row);
    }
    crate::exec::build_auto_indexes(schema, &mut data)?;
    for def in &schema.indexes {
        let positions = schema.resolve_columns(&def.columns)?;
        data.build_index_kind(&def.name, positions, def.unique, def.kind())
            .map_err(DbError::Storage)?;
    }
    data.set_free_list(slot_count, free);
    Ok(data)
}

/// Apply one committed redo record to in-memory state. Errors are typed
/// `DbError::Storage` (or catalog errors) — replay never panics on bad input.
pub(crate) fn apply_record(
    state: &mut DbState,
    privileges: &mut PrivilegeCatalog,
    record: WalRecord,
) -> DbResult<()> {
    match record {
        WalRecord::Begin { .. } | WalRecord::Commit { .. } | WalRecord::Rollback { .. } => Err(
            DbError::Storage("transaction marker inside a commit group".into()),
        ),
        WalRecord::RowInsert { table, rid, row } => {
            let data = state.data.get_mut(&table).ok_or_else(|| {
                DbError::Storage(format!("redo insert into unknown table \"{table}\""))
            })?;
            if data.get(rid).is_some() {
                return Err(DbError::Storage(format!(
                    "redo insert into occupied slot {rid} of \"{table}\""
                )));
            }
            data.restore(rid, row);
            Ok(())
        }
        WalRecord::RowUpdate { table, rid, row } => {
            let data = state.data.get_mut(&table).ok_or_else(|| {
                DbError::Storage(format!("redo update in unknown table \"{table}\""))
            })?;
            data.update(rid, row).map(|_| ()).ok_or_else(|| {
                DbError::Storage(format!("redo update of missing row {rid} in \"{table}\""))
            })
        }
        WalRecord::RowDelete { table, rid } => {
            let data = state.data.get_mut(&table).ok_or_else(|| {
                DbError::Storage(format!("redo delete in unknown table \"{table}\""))
            })?;
            data.delete(rid).map(|_| ()).ok_or_else(|| {
                DbError::Storage(format!("redo delete of missing row {rid} in \"{table}\""))
            })
        }
        WalRecord::CreateTable { schema } => {
            let mut data = TableData::new();
            crate::exec::build_auto_indexes(&schema, &mut data)?;
            for def in &schema.indexes {
                let positions = schema.resolve_columns(&def.columns)?;
                data.build_index_kind(&def.name, positions, def.unique, def.kind())
                    .map_err(DbError::Storage)?;
            }
            let name = schema.name.clone();
            state.catalog.add_table(schema)?;
            state.data.insert(name, data);
            Ok(())
        }
        WalRecord::DropTable { name } => {
            state.catalog.remove_table(&name)?;
            state.data.remove(&name);
            Ok(())
        }
        WalRecord::CreateView {
            name,
            columns,
            query_sql,
        } => {
            let query = parse_select_sql(&query_sql).map_err(DbError::Storage)?;
            state.catalog.add_view(ViewDef {
                name,
                query,
                columns,
            })
        }
        WalRecord::DropView { name } => state.catalog.remove_view(&name).map(|_| ()),
        WalRecord::CreateIndex { table, def } => {
            let schema = state.catalog.table(&table)?.clone();
            let positions = schema.resolve_columns(&def.columns)?;
            let data = state.data.get_mut(&table).ok_or_else(|| {
                DbError::Storage(format!("redo index on unknown table \"{table}\""))
            })?;
            data.build_index_kind(&def.name, positions, def.unique, def.kind())
                .map_err(DbError::Storage)?;
            let schema = state.catalog.table_mut(&table)?;
            if !schema.indexes.iter().any(|i| i.name == def.name) {
                schema.indexes.push(def);
            }
            Ok(())
        }
        WalRecord::AlterRewrite {
            old_name,
            schema,
            slot_count,
            rows,
            free,
        } => {
            let _ = state.catalog.remove_table(&old_name);
            state.data.remove(&old_name);
            let new_name = schema.name.clone();
            let data = rebuild_table(&schema, slot_count, rows, free)?;
            state.catalog.add_table(schema)?;
            state.data.insert(new_name.clone(), data);
            if old_name != new_name {
                // Mirror Catalog::rename_table: inbound FKs follow the rename.
                let names: Vec<String> = state
                    .catalog
                    .table_names()
                    .into_iter()
                    .map(str::to_owned)
                    .collect();
                for name in names {
                    let t = state.catalog.table_mut(&name)?;
                    for fk in &mut t.foreign_keys {
                        if fk.foreign_table == old_name {
                            fk.foreign_table = new_name.clone();
                        }
                    }
                }
            }
            Ok(())
        }
        WalRecord::CreateUser { name, superuser } => privileges.create_user(&name, superuser),
        WalRecord::Grant {
            user,
            action,
            object,
        } => privileges.grant(&user, action, &object),
        WalRecord::Revoke {
            user,
            action,
            object,
        } => privileges.revoke(&user, action, &object),
        WalRecord::GrantAll { user, object } => privileges.grant_all(&user, &object),
        WalRecord::RevokeAll { user, object } => privileges.revoke_all(&user, &object),
        WalRecord::Analyze { table, stats } => {
            // Stats for a table dropped later in the log are simply skipped:
            // they steer the planner, never correctness.
            if state.catalog.contains(&table) {
                state.catalog.set_table_stats(&table, stats);
            }
            Ok(())
        }
    }
}

/// Statistics from replaying a scanned record stream.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ReplayStats {
    pub txns: u64,
    pub records: u64,
    pub(crate) max_txn: u64,
}

/// Apply every *committed* transaction with id greater than `skip_through`
/// (transactions at or below it are already covered by the snapshot).
/// Records of transactions without a surviving `Commit` marker — including
/// a trailing group cut off by a torn tail — are discarded.
pub(crate) fn replay(
    records: Vec<WalRecord>,
    state: &mut DbState,
    privileges: &mut PrivilegeCatalog,
    skip_through: u64,
) -> DbResult<ReplayStats> {
    let mut stats = ReplayStats {
        max_txn: skip_through,
        ..ReplayStats::default()
    };
    let mut current: Option<u64> = None;
    let mut pending: Vec<WalRecord> = Vec::new();
    for rec in records {
        match rec {
            WalRecord::Begin { txn } => {
                current = Some(txn);
                pending.clear();
            }
            WalRecord::Commit { txn } => {
                if current == Some(txn) {
                    if txn > skip_through {
                        for r in pending.drain(..) {
                            apply_record(state, privileges, r)?;
                            stats.records += 1;
                        }
                        stats.txns += 1;
                    } else {
                        pending.clear();
                    }
                    stats.max_txn = stats.max_txn.max(txn);
                }
                current = None;
            }
            WalRecord::Rollback { txn } => {
                if current == Some(txn) {
                    pending.clear();
                }
                current = None;
            }
            other => {
                if current.is_some() {
                    pending.push(other);
                }
            }
        }
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// The durable engine
// ---------------------------------------------------------------------------

fn io_err(context: &str, e: std::io::Error) -> DbError {
    DbError::Storage(format!("{context}: {e}"))
}

/// Storage engine that appends redo records to a WAL and compacts into
/// snapshots. See the module docs for the on-disk format and recovery
/// invariants.
pub(crate) struct DurableEngine {
    snap_path: PathBuf,
    file: File,
    fsync: FsyncPolicy,
    snapshot_every: usize,
    next_txn: u64,
    commits_since_snapshot: usize,
    bytes_since_checkpoint: u64,
    dirty: bool,
    obs: Obs,
}

impl DurableEngine {
    /// Open (or create) the durability directory, recover committed state,
    /// and truncate any torn WAL tail. Returns the engine plus the
    /// recovered state, privileges, and a [`RecoveryReport`].
    pub(crate) fn open(
        config: &DurabilityConfig,
        obs: Obs,
    ) -> DbResult<(DurableEngine, DbState, PrivilegeCatalog, RecoveryReport)> {
        std::fs::create_dir_all(&config.dir).map_err(|e| io_err("create durability dir", e))?;
        let wal_path = config.dir.join(WAL_FILE);
        let snap_path = config.dir.join(SNAPSHOT_FILE);

        let mut span = obs.span("recovery:replay");
        let (mut state, mut privileges) = super::baseline();
        let mut report = RecoveryReport::default();

        if snap_path.exists() {
            let (snap_state, snap_privs, last_txn) = snapshot::load(&snap_path)?;
            state = snap_state;
            privileges = snap_privs;
            report.snapshot_loaded = true;
            report.snapshot_txn = last_txn;
        }

        let wal_bytes = match std::fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read WAL", e)),
        };
        let scanned = scan(&wal_bytes);
        report.wal_bytes = scanned.valid_len as u64;
        report.dropped_bytes = (wal_bytes.len() - scanned.valid_len) as u64;
        if scanned.torn {
            // Truncate back to the valid prefix so future appends extend a
            // clean log instead of burying garbage between valid frames.
            let f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&wal_path)
                .map_err(|e| io_err("open WAL for truncation", e))?;
            f.set_len(scanned.valid_len as u64)
                .map_err(|e| io_err("truncate torn WAL tail", e))?;
            f.sync_data().map_err(|e| io_err("sync truncated WAL", e))?;
        }
        let stats = replay(
            scanned.records,
            &mut state,
            &mut privileges,
            report.snapshot_txn,
        )?;
        report.replayed_txns = stats.txns;
        report.replayed_records = stats.records;

        span.attr("replayed_txns", report.replayed_txns.to_string());
        span.attr("replayed_records", report.replayed_records.to_string());
        span.attr("dropped_bytes", report.dropped_bytes.to_string());
        span.attr(
            "snapshot",
            if report.snapshot_loaded {
                "loaded"
            } else {
                "none"
            },
        );
        drop(span);
        obs.incr("recovery.replayed_txns", report.replayed_txns);
        obs.incr("recovery.replayed_records", report.replayed_records);
        obs.incr("recovery.dropped_bytes", report.dropped_bytes);

        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&wal_path)
            .map_err(|e| io_err("open WAL for append", e))?;
        let engine = DurableEngine {
            snap_path,
            file,
            fsync: config.fsync_policy,
            snapshot_every: config.snapshot_every,
            next_txn: stats.max_txn + 1,
            commits_since_snapshot: 0,
            // The surviving WAL tail is exactly the bytes not yet covered
            // by a snapshot, so the gauge stays truthful across restarts.
            bytes_since_checkpoint: scanned.valid_len as u64,
            dirty: false,
            obs,
        };
        Ok((engine, state, privileges, report))
    }

    fn sync_now(&mut self) -> DbResult<()> {
        let span = self.obs.span("wal:fsync");
        let t0 = Instant::now();
        self.file.sync_data().map_err(|e| io_err("fsync WAL", e))?;
        drop(span);
        self.obs
            .observe_ns("wal.fsync", t0.elapsed().as_nanos() as u64);
        self.obs.incr("wal.fsyncs", 1);
        self.dirty = false;
        Ok(())
    }
}

impl StorageEngine for DurableEngine {
    fn name(&self) -> &'static str {
        "wal"
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn commit_txn(
        &mut self,
        records: &[WalRecord],
        state: &DbState,
        privileges: &PrivilegeCatalog,
    ) -> DbResult<()> {
        if records.is_empty() {
            return Ok(()); // read-only / no-effect transaction: nothing to log
        }
        let t0 = Instant::now();
        let txn = self.next_txn;
        self.next_txn += 1;
        let mut buf = Vec::new();
        frame(&mut buf, &WalRecord::Begin { txn });
        for rec in records {
            frame(&mut buf, rec);
        }
        frame(&mut buf, &WalRecord::Commit { txn });
        {
            let mut span = self.obs.span("wal:append");
            span.attr("txn", txn.to_string());
            span.attr("records", records.len().to_string());
            span.attr("bytes", buf.len().to_string());
            // One write call per transaction: a crash can only tear the
            // final group, which recovery drops wholesale.
            self.file
                .write_all(&buf)
                .map_err(|e| io_err("append WAL", e))?;
            self.dirty = true;
        }
        if self.fsync == FsyncPolicy::Commit {
            self.sync_now()?;
        }
        self.obs.incr("wal.commits", 1);
        self.obs.incr("wal.records", records.len() as u64 + 2);
        self.obs.incr("wal.bytes", buf.len() as u64);
        self.obs
            .observe_ns("wal.commit", t0.elapsed().as_nanos() as u64);
        self.bytes_since_checkpoint += buf.len() as u64;
        self.commits_since_snapshot += 1;
        if self.snapshot_every > 0 && self.commits_since_snapshot >= self.snapshot_every {
            self.checkpoint(state, privileges)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> DbResult<()> {
        if self.dirty {
            self.sync_now()?;
        }
        Ok(())
    }

    fn checkpoint(&mut self, state: &DbState, privileges: &PrivilegeCatalog) -> DbResult<()> {
        let mut span = self.obs.span("snapshot:write");
        let last_txn = self.next_txn.saturating_sub(1);
        span.attr("txn", last_txn.to_string());
        snapshot::save(&self.snap_path, state, privileges, last_txn)?;
        // The snapshot now covers everything; an empty WAL is the correct
        // complement. Order matters: the rename in `save` lands before the
        // truncation, so a crash between the two merely replays WAL
        // transactions the snapshot already holds — which replay skips by
        // transaction id.
        self.file
            .set_len(0)
            .map_err(|e| io_err("truncate WAL after snapshot", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("sync truncated WAL", e))?;
        self.dirty = false;
        self.commits_since_snapshot = 0;
        self.bytes_since_checkpoint = 0;
        self.obs.incr("wal.snapshots", 1);
        Ok(())
    }

    fn wal_bytes_since_checkpoint(&self) -> u64 {
        self.bytes_since_checkpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_codec_round_trips() {
        let recs = vec![
            WalRecord::Begin { txn: 7 },
            WalRecord::RowInsert {
                table: "t".into(),
                rid: 3,
                row: vec![
                    Value::Int(-5),
                    Value::Float(2.5),
                    Value::Text("héllo".into()),
                    Value::Bool(true),
                    Value::Null,
                ],
            },
            WalRecord::RowDelete {
                table: "t".into(),
                rid: 9,
            },
            WalRecord::Grant {
                user: "u".into(),
                action: Action::Update,
                object: "t".into(),
            },
            WalRecord::Commit { txn: 7 },
        ];
        for rec in recs {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(WalRecord::decode(&buf).unwrap(), rec);
        }
    }

    #[test]
    fn frame_scan_stops_at_corruption() {
        let mut buf = Vec::new();
        frame(&mut buf, &WalRecord::Begin { txn: 1 });
        frame(&mut buf, &WalRecord::Commit { txn: 1 });
        let good_len = buf.len();
        frame(&mut buf, &WalRecord::Begin { txn: 2 });
        let last = buf.len() - 1;
        buf[last] ^= 0xFF; // corrupt the final frame's payload
        let scanned = scan(&buf);
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.valid_len, good_len);
        assert!(scanned.torn);
    }

    #[test]
    fn scan_tolerates_garbage_length() {
        let mut buf = Vec::new();
        frame(&mut buf, &WalRecord::Commit { txn: 1 });
        let good_len = buf.len();
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        buf.extend_from_slice(&[0u8; 12]);
        let scanned = scan(&buf);
        assert_eq!(scanned.valid_len, good_len);
        assert!(scanned.torn);
    }
}
