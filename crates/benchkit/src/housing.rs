//! Synthetic California-Housing-style dataset (the NL2ML substrate).
//!
//! The paper uses the Kaggle California Housing table: one `house` table of
//! 10 columns and 20,000 rows. We generate a statistically similar table —
//! coordinates inside a California-like bounding box, log-normal-ish incomes,
//! and a house value driven by income, latitude, and ocean proximity plus
//! noise — so the ML tools find real signal and the serialized table has the
//! same token magnitude (~750k tokens) that exhausts baseline agents'
//! context windows.

use minidb::Database;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Column order of the generated `house` table.
pub const HOUSE_COLUMNS: [&str; 10] = [
    "longitude",
    "latitude",
    "housing_median_age",
    "total_rooms",
    "total_bedrooms",
    "population",
    "households",
    "median_income",
    "median_house_value",
    "ocean_proximity",
];

/// Index of the regression target (`median_house_value`).
pub const TARGET_INDEX: usize = 8;

/// Categories of `ocean_proximity`.
pub const PROXIMITIES: [&str; 4] = ["NEAR BAY", "NEAR OCEAN", "INLAND", "ISLAND"];

/// Build the `house` database with `rows` rows (the paper uses 20,000; the
/// PG-MCP-S variant samples 20).
pub fn build_database(rows: usize, seed: u64) -> Database {
    let db = Database::new();
    let mut session = db.session("admin").expect("admin exists");
    session
        .execute_sql(
            "CREATE TABLE house (longitude REAL, latitude REAL, housing_median_age REAL, \
             total_rooms REAL, total_bedrooms REAL, population REAL, households REAL, \
             median_income REAL, median_house_value REAL, ocean_proximity TEXT)",
        )
        .expect("DDL is valid");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batch: Vec<String> = Vec::with_capacity(500);
    for _ in 0..rows {
        let longitude = rng.gen_range(-124.3..-114.3f64);
        let latitude = rng.gen_range(32.5..42.0f64);
        let age = rng.gen_range(1.0..52.0f64).round();
        let households = rng.gen_range(50.0..1800.0f64).round();
        let rooms = households * rng.gen_range(3.0..7.0f64);
        let bedrooms = rooms * rng.gen_range(0.15..0.25f64);
        let population = households * rng.gen_range(1.8..4.0f64);
        // Income: squared-uniform for a right-skewed (log-normal-ish) shape.
        let u: f64 = rng.gen_range(0.0..1.0);
        let income = (0.5 + 14.0 * u * u).min(15.0);
        let proximity = if longitude < -122.0 && latitude > 36.0 {
            "NEAR BAY"
        } else if longitude < -119.0 {
            "NEAR OCEAN"
        } else if rng.gen_bool(0.02) {
            "ISLAND"
        } else {
            "INLAND"
        };
        // Value: income-driven with coastal premium and noise, capped like
        // the real dataset.
        let coastal_bonus = match proximity {
            "NEAR BAY" => 80_000.0,
            "NEAR OCEAN" => 60_000.0,
            "ISLAND" => 120_000.0,
            _ => 0.0,
        };
        let noise: f64 = rng.gen_range(-40_000.0..40_000.0);
        let value = (28_000.0 * income + coastal_bonus - 2_000.0 * (latitude - 32.5) + noise)
            .clamp(15_000.0, 500_001.0);
        batch.push(format!(
            "({longitude:.2}, {latitude:.2}, {age}, {rooms:.0}, {bedrooms:.0}, {population:.0}, \
             {households:.0}, {income:.4}, {value:.0}, '{proximity}')"
        ));
        if batch.len() == 500 {
            flush(&mut session, &mut batch);
        }
    }
    if !batch.is_empty() {
        flush(&mut session, &mut batch);
    }
    db
}

fn flush(session: &mut minidb::Session, batch: &mut Vec<String>) {
    let sql = format!("INSERT INTO house VALUES {}", batch.join(", "));
    session.execute_sql(&sql).expect("seed insert is valid");
    batch.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{QueryResult, Value};

    #[test]
    fn builds_with_requested_rows() {
        let db = build_database(1_000, 3);
        assert_eq!(db.table_rows("house").unwrap(), 1_000);
        let version = db.snapshot();
        let schema = version.state.catalog.table("house").unwrap();
        assert_eq!(
            schema
                .columns
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            HOUSE_COLUMNS.to_vec()
        );
    }

    #[test]
    fn values_fall_in_realistic_ranges() {
        let db = build_database(500, 3);
        let mut s = db.session("admin").unwrap();
        let r = s
            .execute_sql(
                "SELECT MIN(median_house_value), MAX(median_house_value), MIN(median_income), \
                 MAX(latitude) FROM house",
            )
            .unwrap();
        match r {
            QueryResult::Rows { rows, .. } => {
                let min_v = rows[0][0].as_f64().unwrap();
                let max_v = rows[0][1].as_f64().unwrap();
                assert!(min_v >= 15_000.0 && max_v <= 500_001.0);
                assert!(rows[0][2].as_f64().unwrap() >= 0.5);
                assert!(rows[0][3].as_f64().unwrap() <= 42.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn income_predicts_value() {
        // The generated signal must be learnable (sanity for NL2ML).
        let db = build_database(2_000, 3);
        let mut s = db.session("admin").unwrap();
        let r = s
            .execute_sql("SELECT AVG(median_house_value) FROM house WHERE median_income > 8")
            .unwrap();
        let rich = match r {
            QueryResult::Rows { rows, .. } => rows[0][0].as_f64().unwrap(),
            _ => unreachable!(),
        };
        let r = s
            .execute_sql("SELECT AVG(median_house_value) FROM house WHERE median_income < 2")
            .unwrap();
        let poor = match r {
            QueryResult::Rows { rows, .. } => rows[0][0].as_f64().unwrap(),
            _ => unreachable!(),
        };
        assert!(rich > poor * 1.5, "rich {rich} vs poor {poor}");
    }

    #[test]
    fn categorical_column_has_expected_domain() {
        let db = build_database(2_000, 3);
        let values = db.column_values("house", "ocean_proximity").unwrap();
        for v in values {
            let s = match v {
                Value::Text(s) => s,
                other => panic!("{other:?}"),
            };
            assert!(PROXIMITIES.contains(&s.as_str()), "{s}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_database(100, 11);
        let b = build_database(100, 11);
        let get = |db: &Database| {
            let mut s = db.session("admin").unwrap();
            match s
                .execute_sql("SELECT SUM(median_house_value) FROM house")
                .unwrap()
            {
                QueryResult::Rows { rows, .. } => rows[0][0].as_f64().unwrap(),
                _ => unreachable!(),
            }
        };
        assert_eq!(get(&a), get(&b));
    }
}
