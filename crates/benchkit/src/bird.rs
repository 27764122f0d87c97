//! BIRD-Ext: a synthetic benchmark in the image of the paper's §3.1.
//!
//! The paper extends BIRD with data-manipulation tasks: 150 read (SELECT)
//! tasks plus 50 each of INSERT / UPDATE / DELETE, emphasising operation
//! semantics, user privileges, and transaction management. We cannot ship
//! BIRD's databases, so this module generates BIRD-*like* ones — four
//! domains with realistic schemas, foreign keys, and seeded data — and 300
//! tasks from parameterized templates. Every task carries gold SQL plus the
//! plausible-mistake variants the agent simulator samples from
//! (`schema_corrupted`, `predicate_wrong`, `wrong`); a unit test verifies
//! every gold statement executes against the generated database.

use llmsim::{SqlStep, TaskKind, TaskSpec, ValueLookup};
use minidb::Database;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One generated benchmark task.
#[derive(Debug, Clone)]
pub struct BirdTask {
    /// The agent-facing spec.
    pub spec: TaskSpec,
    /// Which domain (database) the task belongs to.
    pub domain: &'static str,
    /// Tables whose contents decide write-task correctness.
    pub(crate) eval_tables: Vec<String>,
}

impl BirdTask {
    /// Whether the task mutates the database.
    pub fn is_write(&self) -> bool {
        self.spec.kind == TaskKind::Write
    }
}

/// The generated benchmark: a database template plus tasks.
pub struct BirdExt {
    /// Pristine database (fork per run).
    pub template: Database,
    /// The 300 tasks: 150 read, 50 insert, 50 update, 50 delete.
    pub tasks: Vec<BirdTask>,
}

/// Stored categories of the retail sales table; the first entry is the
/// paper's motivating "women's wear".
pub(crate) const CATEGORIES: [&str; 5] = [
    "women's wear",
    "menswear",
    "children's clothing",
    "sportswear",
    "accessories",
];

const COUNTIES: [&str; 4] = [
    "Alameda County",
    "Los Angeles County",
    "Fresno County",
    "Orange County",
];

const RARITIES: [&str; 4] = ["mythic rare", "rare", "uncommon", "common"];

const NATIONALITIES: [&str; 5] = ["British", "German", "Spanish", "Dutch", "Finnish"];

const REGIONS: [&str; 3] = ["west", "east", "north"];

/// Build the multi-domain database.
pub fn build_database(seed: u64) -> Database {
    let db = Database::new();
    build_database_on(&db, seed);
    db
}

/// Populate an existing (empty) database with the multi-domain content.
/// Splitting this from [`build_database`] lets the crash-recovery harness
/// seed a *durable* database with the exact same content a volatile
/// reference gets.
pub fn build_database_on(db: &Database, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut s = db.session("admin").expect("admin exists");
    // Real BIRD databases carry wide tables (the schools domain has dozens
    // of columns); width matters because schema dumps dominate per-call
    // prompt costs for every toolkit.
    let ddl = [
        // schools domain
        "CREATE TABLE schools (cds INTEGER PRIMARY KEY, school TEXT NOT NULL, county TEXT, \
         district TEXT, charter INTEGER, enrollment INTEGER, free_meal_rate REAL, \
         street TEXT, city TEXT, zip TEXT, phone TEXT, website TEXT, open_year INTEGER, \
         grade_low INTEGER, grade_high INTEGER, magnet INTEGER, virtual_school INTEGER)",
        "CREATE TABLE satscores (cds INTEGER PRIMARY KEY REFERENCES schools(cds), \
         avg_read INTEGER, avg_math INTEGER, num_tested INTEGER, avg_writing INTEGER, \
         pct_ge_1500 REAL)",
        // card games domain
        "CREATE TABLE sets (code TEXT PRIMARY KEY, set_name TEXT NOT NULL, release_year INTEGER, \
         total_cards INTEGER, block_name TEXT, set_type TEXT)",
        "CREATE TABLE cards (card_id INTEGER PRIMARY KEY, card_name TEXT NOT NULL, \
         set_code TEXT REFERENCES sets(code), rarity TEXT, mana_cost INTEGER, card_power INTEGER, \
         artist TEXT, layout TEXT, border_color TEXT, frame_version INTEGER)",
        // formula 1 domain
        "CREATE TABLE drivers (driver_id INTEGER PRIMARY KEY, driver_name TEXT NOT NULL, \
         nationality TEXT, birth_year INTEGER, driver_code TEXT, home_city TEXT)",
        "CREATE TABLE races (race_id INTEGER PRIMARY KEY, race_name TEXT NOT NULL, \
         season INTEGER, round INTEGER, circuit TEXT, country TEXT)",
        "CREATE TABLE results (result_id INTEGER PRIMARY KEY, \
         race_id INTEGER REFERENCES races(race_id), driver_id INTEGER REFERENCES drivers(driver_id), \
         position INTEGER, points REAL, grid INTEGER, laps INTEGER, status TEXT)",
        // retail domain (the chain-store scenario)
        "CREATE TABLE stores (store_id INTEGER PRIMARY KEY, store_name TEXT NOT NULL UNIQUE, \
         region TEXT, manager TEXT, opened_year INTEGER)",
        "CREATE TABLE brand_a_sales (sale_id INTEGER PRIMARY KEY, \
         store_id INTEGER REFERENCES stores(store_id), day TEXT, category TEXT, amount REAL, \
         clerk TEXT, channel TEXT)",
        "CREATE TABLE brand_a_refunds (refund_id INTEGER PRIMARY KEY, \
         store_id INTEGER REFERENCES stores(store_id), day TEXT, amount REAL, reason TEXT)",
        // sensitive, task-unrelated table (the irrelevant role's scope)
        "CREATE TABLE employee_salaries (emp_id INTEGER PRIMARY KEY, emp_name TEXT NOT NULL, \
         salary REAL, dept TEXT)",
    ];
    for stmt in ddl {
        s.execute_sql(stmt).expect("DDL is valid");
    }

    // ---- schools ----
    let mut rows = Vec::new();
    for i in 0..120 {
        let county = COUNTIES[rng.gen_range(0..COUNTIES.len())];
        let low = rng.gen_range(0..7);
        rows.push(format!(
            "({}, 'School {}', '{}', 'District {}', {}, {}, {:.2}, \
             '{} Main St', 'Town {}', '9{:04}', '555-{:04}', 'school{}.example.edu', {}, {}, {}, {}, {})",
            1000 + i,
            i,
            county.replace('\'', "''"),
            i % 12,
            i32::from(rng.gen_bool(0.3)),
            rng.gen_range(100..4000),
            rng.gen_range(0.0..1.0f64),
            100 + i,
            i % 30,
            rng.gen_range(0..9999),
            rng.gen_range(0..9999),
            i,
            rng.gen_range(1900..2015),
            low,
            low + rng.gen_range(4..7),
            i32::from(rng.gen_bool(0.1)),
            i32::from(rng.gen_bool(0.05)),
        ));
    }
    batch_insert(&mut s, "schools", &rows);
    let mut rows = Vec::new();
    for i in 0..120 {
        rows.push(format!(
            "({}, {}, {}, {}, {}, {:.2})",
            1000 + i,
            rng.gen_range(350..650),
            rng.gen_range(350..650),
            rng.gen_range(20..900),
            rng.gen_range(350..650),
            rng.gen_range(0.0..0.4f64),
        ));
    }
    batch_insert(&mut s, "satscores", &rows);

    // ---- card games ----
    let mut rows = Vec::new();
    for i in 0..12 {
        rows.push(format!(
            "('SET{i:02}', 'Expansion {i}', {}, {}, 'Block {}', '{}')",
            1998 + i * 2,
            rng.gen_range(100..350),
            i / 3,
            if i % 3 == 0 { "core" } else { "expansion" },
        ));
    }
    batch_insert(&mut s, "sets", &rows);
    let mut rows = Vec::new();
    for i in 0..200 {
        let rarity = RARITIES[rng.gen_range(0..RARITIES.len())];
        rows.push(format!(
            "({}, 'Card {}', 'SET{:02}', '{}', {}, {}, 'Artist {}', 'normal', '{}', {})",
            i,
            i,
            rng.gen_range(0..12),
            rarity,
            rng.gen_range(0..12),
            rng.gen_range(0..10),
            i % 25,
            if i % 4 == 0 { "black" } else { "white" },
            rng.gen_range(1..4),
        ));
    }
    batch_insert(&mut s, "cards", &rows);

    // ---- formula 1 ----
    let mut rows = Vec::new();
    for i in 0..40 {
        rows.push(format!(
            "({}, 'Driver {}', '{}', {}, 'DR{}', 'City {}')",
            i,
            i,
            NATIONALITIES[rng.gen_range(0..NATIONALITIES.len())],
            rng.gen_range(1960..2002),
            i,
            i % 15,
        ));
    }
    batch_insert(&mut s, "drivers", &rows);
    let mut rows = Vec::new();
    for i in 0..60 {
        rows.push(format!(
            "({}, 'Grand Prix {}', {}, {}, 'Circuit {}', '{}')",
            i,
            i,
            2018 + i % 6,
            1 + i % 10,
            i % 20,
            NATIONALITIES[i % NATIONALITIES.len()],
        ));
    }
    batch_insert(&mut s, "races", &rows);
    let mut rows = Vec::new();
    for i in 0..300 {
        rows.push(format!(
            "({}, {}, {}, {}, {:.1}, {}, {}, '{}')",
            i,
            rng.gen_range(0..60),
            rng.gen_range(0..40),
            rng.gen_range(1..21),
            [25.0, 18.0, 15.0, 12.0, 10.0, 8.0, 6.0, 4.0, 2.0, 1.0, 0.0][rng.gen_range(0..11usize)],
            rng.gen_range(1..21),
            rng.gen_range(40..70),
            if rng.gen_bool(0.9) { "Finished" } else { "DNF" },
        ));
    }
    batch_insert(&mut s, "results", &rows);

    // ---- retail ----
    let mut rows = Vec::new();
    for i in 0..8 {
        rows.push(format!(
            "({}, 'Store {}', '{}', 'Manager {}', {})",
            i,
            i,
            REGIONS[i % REGIONS.len()],
            i,
            2000 + i,
        ));
    }
    batch_insert(&mut s, "stores", &rows);
    let mut rows = Vec::new();
    for i in 0..250 {
        let cat = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
        rows.push(format!(
            "({}, {}, '2026-{:02}-{:02}', '{}', {:.2}, 'Clerk {}', '{}')",
            i,
            rng.gen_range(0..8),
            1 + i % 6,
            1 + i % 28,
            cat.replace('\'', "''"),
            rng.gen_range(5.0..500.0f64),
            i % 12,
            if i % 5 == 0 { "online" } else { "in_store" },
        ));
    }
    batch_insert(&mut s, "brand_a_sales", &rows);
    let mut rows = Vec::new();
    for i in 0..80 {
        rows.push(format!(
            "({}, {}, '2026-{:02}-{:02}', {:.2}, '{}')",
            i,
            rng.gen_range(0..8),
            1 + i % 6,
            1 + i % 28,
            rng.gen_range(1.0..80.0f64),
            if i % 3 == 0 { "damaged" } else { "returned" },
        ));
    }
    batch_insert(&mut s, "brand_a_refunds", &rows);

    // ---- salaries ----
    let mut rows = Vec::new();
    for i in 0..20 {
        rows.push(format!(
            "({}, 'Employee {}', {:.2}, '{}')",
            i,
            i,
            rng.gen_range(30_000.0..180_000.0f64),
            if i % 2 == 0 { "ops" } else { "sales" },
        ));
    }
    batch_insert(&mut s, "employee_salaries", &rows);
}

fn batch_insert(session: &mut minidb::Session, table: &str, rows: &[String]) {
    for chunk in rows.chunks(100) {
        let sql = format!("INSERT INTO {table} VALUES {}", chunk.join(", "));
        session
            .execute_sql(&sql)
            .unwrap_or_else(|e| panic!("seed insert into {table} failed: {e}"));
    }
}

/// Generate the full benchmark: database template + 300 tasks.
pub fn generate(seed: u64) -> BirdExt {
    let template = build_database(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_7a5c);
    let mut tasks = Vec::with_capacity(300);
    for i in 0..150 {
        tasks.push(read_task(i, &mut rng));
    }
    for i in 0..50 {
        tasks.push(insert_task(i, &mut rng));
    }
    for i in 0..50 {
        tasks.push(update_task(i, &mut rng));
    }
    for i in 0..50 {
        tasks.push(delete_task(i, &mut rng));
    }
    BirdExt { template, tasks }
}

fn step(
    action: &str,
    tables: &[&str],
    gold: String,
    corrupted: Option<String>,
    wrong: Option<String>,
) -> SqlStep {
    SqlStep {
        action: action.into(),
        tables: tables.iter().map(|t| (*t).to_owned()).collect(),
        gold,
        schema_corrupted: corrupted,
        predicate_wrong: None,
        wrong,
        lookup: None,
    }
}

fn read_task(i: usize, rng: &mut SmallRng) -> BirdTask {
    let template = i % 10;
    let id = format!("read-{i:03}");
    match template {
        0 => {
            // Text predicate with exemplar grounding (county).
            let county = COUNTIES[rng.gen_range(0..COUNTIES.len())];
            let key = county.trim_end_matches(" County");
            let mut st = step(
                "select",
                &["schools"],
                format!("SELECT COUNT(*) FROM schools WHERE charter = 1 AND county = '{county}'"),
                Some(format!(
                    "SELECT COUNT(*) FROM schools WHERE is_charter = 1 AND county = '{county}'"
                )),
                Some(format!(
                    "SELECT COUNT(*) FROM schools WHERE charter = 0 AND county = '{county}'"
                )),
            );
            st.predicate_wrong = Some(format!(
                "SELECT COUNT(*) FROM schools WHERE charter = 1 AND county = '{key}'"
            ));
            st.lookup = Some(ValueLookup {
                table: "schools".into(),
                column: "county".into(),
                key: key.to_owned(),
                actual: county.to_owned(),
            });
            BirdTask {
                spec: TaskSpec::read(
                    id,
                    format!("How many charter schools are located in {key}?"),
                    st,
                ),
                domain: "schools",
                eval_tables: vec![],
            }
        }
        1 => {
            let n = rng.gen_range(1000..3000);
            let st = step(
                "select",
                &["schools", "satscores"],
                format!(
                    "SELECT AVG(s.avg_math) FROM satscores AS s JOIN schools AS c ON s.cds = c.cds \
                     WHERE c.enrollment > {n}"
                ),
                Some(format!(
                    "SELECT AVG(s.avg_math) FROM satscores AS s JOIN schools AS c ON s.cds = c.cds \
                     WHERE c.enrolment > {n}"
                )),
                Some(format!(
                    "SELECT AVG(s.avg_read) FROM satscores AS s JOIN schools AS c ON s.cds = c.cds \
                     WHERE c.enrollment > {n}"
                )),
            );
            BirdTask {
                spec: TaskSpec::read(
                    id,
                    format!(
                        "What is the average SAT math score among schools with enrollment above {n}?"
                    ),
                    st,
                ),
                domain: "schools",
                eval_tables: vec![],
            }
        }
        2 => {
            let st = step(
                "select",
                &["schools"],
                "SELECT school FROM schools ORDER BY free_meal_rate DESC LIMIT 3".into(),
                Some("SELECT school_name FROM schools ORDER BY free_meal_rate DESC LIMIT 3".into()),
                Some("SELECT school FROM schools ORDER BY free_meal_rate LIMIT 3".into()),
            );
            BirdTask {
                spec: TaskSpec::read(
                    id,
                    "List the names of the three schools with the highest free meal rate.",
                    st,
                ),
                domain: "schools",
                eval_tables: vec![],
            }
        }
        3 => {
            // Rarity lookup ("mythic" → "mythic rare").
            let mut st = step(
                "select",
                &["cards"],
                "SELECT COUNT(*) FROM cards WHERE rarity = 'mythic rare'".into(),
                Some("SELECT COUNT(*) FROM cards WHERE rareness = 'mythic rare'".into()),
                Some("SELECT COUNT(*) FROM cards WHERE rarity = 'rare'".into()),
            );
            st.predicate_wrong = Some("SELECT COUNT(*) FROM cards WHERE rarity = 'mythic'".into());
            st.lookup = Some(ValueLookup {
                table: "cards".into(),
                column: "rarity".into(),
                key: "mythic".into(),
                actual: "mythic rare".into(),
            });
            BirdTask {
                spec: TaskSpec::read(id, "How many mythic cards are in the collection?", st),
                domain: "card_games",
                eval_tables: vec![],
            }
        }
        4 => {
            let year = 2000 + 2 * rng.gen_range(0..8);
            let st = step(
                "select",
                &["cards", "sets"],
                format!(
                    "SELECT COUNT(*) FROM cards AS c JOIN sets AS s ON c.set_code = s.code \
                     WHERE s.release_year > {year}"
                ),
                Some(format!(
                    "SELECT COUNT(*) FROM cards AS c JOIN sets AS s ON c.setcode = s.code \
                     WHERE s.release_year > {year}"
                )),
                Some(format!(
                    "SELECT COUNT(*) FROM cards AS c JOIN sets AS s ON c.set_code = s.code \
                     WHERE s.release_year < {year}"
                )),
            );
            BirdTask {
                spec: TaskSpec::read(
                    id,
                    format!("How many cards belong to sets released after {year}?"),
                    st,
                ),
                domain: "card_games",
                eval_tables: vec![],
            }
        }
        5 => {
            let st = step(
                "select",
                &["cards"],
                "SELECT rarity, COUNT(*) AS n FROM cards GROUP BY rarity ORDER BY n DESC LIMIT 1"
                    .into(),
                Some(
                    "SELECT rarity, COUNT(*) AS n FROM deck_cards GROUP BY rarity ORDER BY n DESC \
                     LIMIT 1"
                        .into(),
                ),
                Some(
                    "SELECT rarity, COUNT(*) AS n FROM cards GROUP BY rarity ORDER BY n LIMIT 1"
                        .into(),
                ),
            );
            BirdTask {
                spec: TaskSpec::read(
                    id,
                    "Which rarity has the most cards, and how many does it have?",
                    st,
                ),
                domain: "card_games",
                eval_tables: vec![],
            }
        }
        6 => {
            let season = 2018 + rng.gen_range(0..6);
            let st = step(
                "select",
                &["drivers", "races", "results"],
                format!(
                    "SELECT d.driver_name, SUM(r.points) AS total FROM results AS r \
                     JOIN races AS g ON r.race_id = g.race_id \
                     JOIN drivers AS d ON r.driver_id = d.driver_id \
                     WHERE g.season = {season} GROUP BY d.driver_name ORDER BY total DESC LIMIT 1"
                ),
                Some(format!(
                    "SELECT d.name, SUM(r.points) AS total FROM results AS r \
                     JOIN races AS g ON r.race_id = g.race_id \
                     JOIN drivers AS d ON r.driver_id = d.driver_id \
                     WHERE g.season = {season} GROUP BY d.name ORDER BY total DESC LIMIT 1"
                )),
                Some(format!(
                    "SELECT d.driver_name, SUM(r.points) AS total FROM results AS r \
                     JOIN races AS g ON r.race_id = g.race_id \
                     JOIN drivers AS d ON r.driver_id = d.driver_id \
                     WHERE g.season = {season} GROUP BY d.driver_name ORDER BY total LIMIT 1"
                )),
            );
            BirdTask {
                spec: TaskSpec::read(
                    id,
                    format!("Which driver scored the most points in the {season} season?"),
                    st,
                ),
                domain: "formula_1",
                eval_tables: vec![],
            }
        }
        7 => {
            let driver = rng.gen_range(0..40);
            let st = step(
                "select",
                &["results"],
                format!("SELECT COUNT(*) FROM results WHERE driver_id = {driver} AND position = 1"),
                Some(format!(
                    "SELECT COUNT(*) FROM results WHERE driverid = {driver} AND position = 1"
                )),
                Some(format!(
                    "SELECT COUNT(*) FROM results WHERE driver_id = {driver} AND position <= 3"
                )),
            );
            BirdTask {
                spec: TaskSpec::read(
                    id,
                    format!("How many race wins does driver {driver} have?"),
                    st,
                ),
                domain: "formula_1",
                eval_tables: vec![],
            }
        }
        8 => {
            // The paper's women's-wear example.
            let day = format!("2026-{:02}-01", 1 + rng.gen_range(0..6));
            let mut st = step(
                "select",
                &["brand_a_sales"],
                format!(
                    "SELECT SUM(amount) FROM brand_a_sales WHERE category = 'women''s wear' \
                     AND day >= '{day}'"
                ),
                Some(format!(
                    "SELECT SUM(amount) FROM brand_a_sales WHERE product_category = 'women''s wear' \
                     AND day >= '{day}'"
                )),
                Some(format!(
                    "SELECT SUM(amount) FROM brand_a_sales WHERE category = 'menswear' \
                     AND day >= '{day}'"
                )),
            );
            st.predicate_wrong = Some(format!(
                "SELECT SUM(amount) FROM brand_a_sales WHERE category = 'women' AND day >= '{day}'"
            ));
            st.lookup = Some(ValueLookup {
                table: "brand_a_sales".into(),
                column: "category".into(),
                key: "women".into(),
                actual: "women's wear".into(),
            });
            BirdTask {
                spec: TaskSpec::read(
                    id,
                    format!("What is the total sales amount for women's clothing since {day}?"),
                    st,
                ),
                domain: "retail",
                eval_tables: vec![],
            }
        }
        _ => {
            let n = rng.gen_range(2000..9000);
            let st = step(
                "select",
                &["stores", "brand_a_sales"],
                format!(
                    "SELECT s.store_name, SUM(x.amount) AS total FROM brand_a_sales AS x \
                     JOIN stores AS s ON x.store_id = s.store_id GROUP BY s.store_name \
                     HAVING SUM(x.amount) > {n} ORDER BY total DESC"
                ),
                Some(format!(
                    "SELECT s.name, SUM(x.amount) AS total FROM brand_a_sales AS x \
                     JOIN stores AS s ON x.store_id = s.store_id GROUP BY s.name \
                     HAVING SUM(x.amount) > {n} ORDER BY total DESC"
                )),
                Some(format!(
                    "SELECT s.store_name, SUM(x.amount) AS total FROM brand_a_sales AS x \
                     JOIN stores AS s ON x.store_id = s.store_id GROUP BY s.store_name \
                     HAVING SUM(x.amount) < {n} ORDER BY total DESC"
                )),
            );
            BirdTask {
                spec: TaskSpec::read(
                    id,
                    format!("Which stores have total brand-A sales above {n}, highest first?"),
                    st,
                ),
                domain: "retail",
                eval_tables: vec![],
            }
        }
    }
}

fn insert_task(i: usize, rng: &mut SmallRng) -> BirdTask {
    let id = format!("insert-{i:03}");
    // Fresh primary keys far above the seeded ranges; spaced so tasks never
    // collide even if several run against one database.
    let base = 100_000 + i as i64 * 10;
    match i % 4 {
        0 => {
            // The chain-store scenario: atomically record a sale and refund.
            let store = rng.gen_range(0..8);
            let amount = rng.gen_range(50.0..400.0f64);
            let steps = vec![
                step(
                    "insert",
                    &["brand_a_sales"],
                    format!(
                        "INSERT INTO brand_a_sales (sale_id, store_id, day, category, amount) VALUES \
                         ({base}, {store}, '2026-07-01', 'women''s wear', {amount:.2})"
                    ),
                    Some(format!(
                        "INSERT INTO brand_a_sales (sale_id, store, day, category, amount) VALUES \
                         ({base}, {store}, '2026-07-01', 'women''s wear', {amount:.2})"
                    )),
                    None,
                ),
                step(
                    "insert",
                    &["brand_a_refunds"],
                    format!(
                        "INSERT INTO brand_a_refunds (refund_id, store_id, day, amount) VALUES \
                         ({base}, {store}, '2026-07-01', {:.2})",
                        amount / 10.0
                    ),
                    None,
                    None,
                ),
            ];
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!(
                        "Record today's figures for store {store}: a women's wear sale of \
                         {amount:.2} and the matching refund of {:.2}. Both must be stored \
                         atomically.",
                        amount / 10.0
                    ),
                    steps,
                ),
                domain: "retail",
                eval_tables: vec!["brand_a_sales".into(), "brand_a_refunds".into()],
            }
        }
        1 => {
            let county = COUNTIES[rng.gen_range(0..COUNTIES.len())];
            let enrollment = rng.gen_range(200..2500);
            let st = step(
                "insert",
                &["schools"],
                format!(
                    "INSERT INTO schools (cds, school, county, district, charter, enrollment, \
                     free_meal_rate) VALUES ({base}, 'New Academy {i}', '{county}', \
                     'District 99', 1, {enrollment}, 0.5)"
                ),
                Some(format!(
                    "INSERT INTO schools (cds, name, county, district, charter, enrollment, \
                     free_meal_rate) VALUES ({base}, 'New Academy {i}', '{county}', 'District 99', \
                     1, {enrollment}, 0.5)"
                )),
                Some(format!(
                    "INSERT INTO schools (cds, school, county, district, charter, enrollment, \
                     free_meal_rate) VALUES ({base}, 'New Academy {i}', '{county}', \
                     'District 99', 0, {enrollment}, 0.5)"
                )),
            );
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!(
                        "Register the new charter school 'New Academy {i}' in {county} \
                         (district 99, {enrollment} students, 50% free meal rate)."
                    ),
                    vec![st],
                ),
                domain: "schools",
                eval_tables: vec!["schools".into()],
            }
        }
        2 => {
            // Two-step insert with an FK dependency: a set, then its cards.
            let steps = vec![
                step(
                    "insert",
                    &["sets"],
                    format!(
                        "INSERT INTO sets (code, set_name, release_year, total_cards) VALUES \
                         ('NEW{i:02}', 'Novelty {i}', 2026, 2)"
                    ),
                    None,
                    None,
                ),
                step(
                    "insert",
                    &["cards"],
                    format!(
                        "INSERT INTO cards (card_id, card_name, set_code, rarity, mana_cost, card_power) \
                         VALUES ({base}, 'Nova {i}a', 'NEW{i:02}', 'rare', 4, 5), \
                         ({}, 'Nova {i}b', 'NEW{i:02}', 'common', 1, 1)",
                        base + 1
                    ),
                    Some(format!(
                        "INSERT INTO cards (card_id, card_name, set_code, rarity, mana_cost, card_power) \
                         VALUES ({base}, 'Nova {i}a', 'NEW{i:02}', 'rare', 4, 5), \
                         ({}, 'Nova {i}b', 'MISSING', 'common', 1, 1)",
                        base + 1
                    )),
                    None,
                ),
            ];
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!(
                        "Add the new expansion 'Novelty {i}' released in 2026 together with its \
                         two cards Nova {i}a (rare) and Nova {i}b (common), as one atomic change."
                    ),
                    steps,
                ),
                domain: "card_games",
                eval_tables: vec!["sets".into(), "cards".into()],
            }
        }
        _ => {
            let race = rng.gen_range(0..60);
            let driver = rng.gen_range(0..40);
            let st = step(
                "insert",
                &["results"],
                format!(
                    "INSERT INTO results (result_id, race_id, driver_id, position, points) VALUES \
                     ({base}, {race}, {driver}, 2, 18.0)"
                ),
                Some(format!(
                    "INSERT INTO race_results (result_id, race_id, driver_id, position, points) VALUES \
                     ({base}, {race}, {driver}, 2, 18.0)"
                )),
                Some(format!(
                    "INSERT INTO results (result_id, race_id, driver_id, position, points) VALUES \
                     ({base}, {race}, {driver}, 3, 15.0)"
                )),
            );
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!(
                        "Record that driver {driver} finished second (18 points) in race {race}."
                    ),
                    vec![st],
                ),
                domain: "formula_1",
                eval_tables: vec!["results".into()],
            }
        }
    }
}

fn update_task(i: usize, rng: &mut SmallRng) -> BirdTask {
    let id = format!("update-{i:03}");
    match i % 4 {
        0 => {
            let day = format!("2026-{:02}-05", 1 + rng.gen_range(0..6));
            let mut st = step(
                "update",
                &["brand_a_sales"],
                format!(
                    "UPDATE brand_a_sales SET amount = amount * 1.1 \
                     WHERE category = 'women''s wear' AND day = '{day}'"
                ),
                Some(format!(
                    "UPDATE brand_a_sales SET sale_amount = sale_amount * 1.1 \
                     WHERE category = 'women''s wear' AND day = '{day}'"
                )),
                Some(format!(
                    "UPDATE brand_a_sales SET amount = amount * 1.2 \
                     WHERE category = 'women''s wear' AND day = '{day}'"
                )),
            );
            st.predicate_wrong = Some(format!(
                "UPDATE brand_a_sales SET amount = amount * 1.1 \
                 WHERE category = 'women' AND day = '{day}'"
            ));
            st.lookup = Some(ValueLookup {
                table: "brand_a_sales".into(),
                column: "category".into(),
                key: "women".into(),
                actual: "women's wear".into(),
            });
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!(
                        "Apply a 10% price correction to all women's clothing sales recorded on \
                         {day}."
                    ),
                    vec![st],
                ),
                domain: "retail",
                eval_tables: vec!["brand_a_sales".into()],
            }
        }
        1 => {
            let school = 1000 + rng.gen_range(0..120);
            let st = step(
                "update",
                &["schools"],
                format!("UPDATE schools SET charter = 1 WHERE cds = {school}"),
                Some(format!(
                    "UPDATE schools SET is_charter = 1 WHERE cds = {school}"
                )),
                Some(format!(
                    "UPDATE schools SET charter = 0 WHERE cds = {school}"
                )),
            );
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!("Mark school {school} as a charter school."),
                    vec![st],
                ),
                domain: "schools",
                eval_tables: vec!["schools".into()],
            }
        }
        2 => {
            let cost = rng.gen_range(8..11);
            let st = step(
                "update",
                &["cards"],
                format!("UPDATE cards SET rarity = 'mythic rare' WHERE mana_cost >= {cost}"),
                Some(format!(
                    "UPDATE cards SET rareness = 'mythic rare' WHERE mana_cost >= {cost}"
                )),
                Some(format!(
                    "UPDATE cards SET rarity = 'rare' WHERE mana_cost >= {cost}"
                )),
            );
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!("Reclassify every card with mana cost at least {cost} as mythic rare."),
                    vec![st],
                ),
                domain: "card_games",
                eval_tables: vec!["cards".into()],
            }
        }
        _ => {
            let result = rng.gen_range(0..300);
            let st = step(
                "update",
                &["results"],
                format!("UPDATE results SET points = points + 1 WHERE result_id = {result}"),
                Some(format!(
                    "UPDATE results SET point = point + 1 WHERE result_id = {result}"
                )),
                Some(format!(
                    "UPDATE results SET points = points - 1 WHERE result_id = {result}"
                )),
            );
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!(
                        "A stewards' review awarded one extra point for result {result}; apply it."
                    ),
                    vec![st],
                ),
                domain: "formula_1",
                eval_tables: vec!["results".into()],
            }
        }
    }
}

fn delete_task(i: usize, rng: &mut SmallRng) -> BirdTask {
    let id = format!("delete-{i:03}");
    match i % 4 {
        0 => {
            let day = format!("2026-{:02}-01", 1 + rng.gen_range(0..3));
            let st = step(
                "delete",
                &["brand_a_refunds"],
                format!("DELETE FROM brand_a_refunds WHERE day < '{day}'"),
                Some(format!("DELETE FROM brand_a_refund WHERE day < '{day}'")),
                Some(format!("DELETE FROM brand_a_refunds WHERE day <= '{day}'")),
            );
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!("Purge all brand-A refund records older than {day}."),
                    vec![st],
                ),
                domain: "retail",
                eval_tables: vec!["brand_a_refunds".into()],
            }
        }
        1 => {
            let n = rng.gen_range(30..120);
            let st = step(
                "delete",
                &["satscores"],
                format!("DELETE FROM satscores WHERE num_tested < {n}"),
                Some(format!("DELETE FROM satscores WHERE tested_count < {n}")),
                Some(format!(
                    "DELETE FROM satscores WHERE num_tested < {}",
                    n + 50
                )),
            );
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!(
                        "Remove SAT score rows based on fewer than {n} tested students; they are \
                         statistically unreliable."
                    ),
                    vec![st],
                ),
                domain: "schools",
                eval_tables: vec!["satscores".into()],
            }
        }
        2 => {
            let power = rng.gen_range(1..4);
            let set = rng.gen_range(0..12);
            let st = step(
                "delete",
                &["cards"],
                format!(
                    "DELETE FROM cards WHERE set_code = 'SET{set:02}' AND card_power < {power}"
                ),
                Some(format!(
                    "DELETE FROM cards WHERE setcode = 'SET{set:02}' AND card_power < {power}"
                )),
                Some(format!(
                    "DELETE FROM cards WHERE set_code = 'SET{set:02}' AND card_power <= {power}"
                )),
            );
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!(
                        "Drop the weak cards (power below {power}) of set SET{set:02} from the \
                         collection."
                    ),
                    vec![st],
                ),
                domain: "card_games",
                eval_tables: vec!["cards".into()],
            }
        }
        _ => {
            let season = 2018 + rng.gen_range(0..6);
            let st = step(
                "delete",
                &["results", "races"],
                format!(
                    "DELETE FROM results WHERE race_id IN \
                     (SELECT race_id FROM races WHERE season = {season} AND round > 8)"
                ),
                Some(format!(
                    "DELETE FROM results WHERE raceid IN \
                     (SELECT raceid FROM races WHERE season = {season} AND round > 8)"
                )),
                Some(format!(
                    "DELETE FROM results WHERE race_id IN \
                     (SELECT race_id FROM races WHERE season = {season} AND round > 5)"
                )),
            );
            BirdTask {
                spec: TaskSpec::write(
                    id,
                    format!(
                        "The late-season rounds (after round 8) of {season} were voided; delete \
                         their results."
                    ),
                    vec![st],
                ),
                domain: "formula_1",
                eval_tables: vec!["results".into()],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::QueryResult;

    #[test]
    fn database_builds_with_all_tables() {
        let db = build_database(1);
        let names = db.table_names();
        for t in [
            "schools",
            "satscores",
            "sets",
            "cards",
            "drivers",
            "races",
            "results",
            "stores",
            "brand_a_sales",
            "brand_a_refunds",
            "employee_salaries",
        ] {
            assert!(names.contains(&t.to_string()), "missing {t}");
        }
        assert_eq!(db.table_rows("brand_a_sales").unwrap(), 250);
        assert_eq!(db.table_rows("schools").unwrap(), 120);
    }

    #[test]
    fn task_mix_matches_the_paper() {
        let bench = generate(7);
        assert_eq!(bench.tasks.len(), 300);
        let read = bench.tasks.iter().filter(|t| !t.is_write()).count();
        assert_eq!(read, 150);
        let inserts = bench
            .tasks
            .iter()
            .filter(|t| t.spec.id.starts_with("insert-"))
            .count();
        assert_eq!(inserts, 50);
    }

    #[test]
    fn every_gold_statement_executes() {
        let bench = generate(7);
        for task in &bench.tasks {
            let db = bench.template.fork();
            let mut s = db.session("admin").unwrap();
            for st in &task.spec.steps {
                s.execute_sql(&st.gold).unwrap_or_else(|e| {
                    panic!("gold of {} failed: {e}\n{}", task.spec.id, st.gold)
                });
            }
        }
    }

    #[test]
    fn every_wrong_variant_also_executes() {
        // "wrong" SQL must run fine (it is semantically wrong, not broken).
        let bench = generate(7);
        for task in &bench.tasks {
            let db = bench.template.fork();
            let mut s = db.session("admin").unwrap();
            for st in &task.spec.steps {
                if let Some(wrong) = &st.wrong {
                    s.execute_sql(wrong).unwrap_or_else(|e| {
                        panic!("wrong variant of {} failed: {e}\n{wrong}", task.spec.id)
                    });
                }
            }
        }
    }

    #[test]
    fn corrupted_variants_fail_with_schema_errors() {
        let bench = generate(7);
        let db = bench.template.fork();
        for task in &bench.tasks {
            let mut s = db.session("admin").unwrap();
            for st in &task.spec.steps {
                if let Some(bad) = &st.schema_corrupted {
                    assert!(
                        s.execute_sql(bad).is_err(),
                        "corrupted SQL of {} unexpectedly succeeded: {bad}",
                        task.spec.id
                    );
                }
            }
        }
    }

    #[test]
    fn predicate_wrong_variants_return_empty_or_zero() {
        let bench = generate(7);
        let db = bench.template.fork();
        for task in &bench.tasks {
            let mut s = db.session("admin").unwrap();
            for st in &task.spec.steps {
                if let Some(pw) = &st.predicate_wrong {
                    if st.action != "select" {
                        continue;
                    }
                    match s.execute_sql(pw).unwrap() {
                        QueryResult::Rows { rows, .. } => {
                            // COUNT/SUM over the miss is 0 or NULL.
                            let v = &rows[0][0];
                            assert!(
                                v.is_null() || v.as_f64() == Some(0.0),
                                "{}: predicate_wrong unexpectedly matched: {pw}",
                                task.spec.id
                            );
                        }
                        other => panic!("{other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(9);
        let b = generate(9);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.spec.id, y.spec.id);
            assert_eq!(x.spec.nl, y.spec.nl);
            assert_eq!(
                x.spec.steps.iter().map(|s| &s.gold).collect::<Vec<_>>(),
                y.spec.steps.iter().map(|s| &s.gold).collect::<Vec<_>>()
            );
        }
    }
}
