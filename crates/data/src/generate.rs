//! Seeded synthetic workload generators for the TOREADOR vertical scenarios.
//!
//! The paper's Labs expose "simplified versions of real-life vertical
//! scenarios"; the original platform used customer datasets we do not have.
//! These generators are the documented substitution (DESIGN.md §2): each
//! vertical plants the statistical structure its challenge needs — funnel
//! conversion and Zipf-popular products in the clickstream, diurnal load
//! curves and injected faults in the telemetry, and quasi-identifier /
//! sensitive-attribute structure in the health records. Everything is
//! deterministic in the seed.

use rand::distributions::{Alphanumeric, Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::schema::{Field, Schema};
use crate::table::{Table, TableBuilder};
use crate::value::{DataType, Value};

/// A Zipf-distributed sampler over `0..n` with exponent `s`.
///
/// Implemented by inverse-CDF over the precomputed harmonic weights; O(log n)
/// per sample. Rank 0 is the most popular item.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs n > 0");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Sample from a standard normal via Box–Muller.
pub fn normal(rng: &mut impl Rng, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    mean + std_dev * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

const COUNTRIES: &[&str] = &["IT", "ES", "FR", "DE", "UK", "NL", "PL", "SE"];
const CATEGORIES: &[&str] = &[
    "electronics",
    "fashion",
    "home",
    "sports",
    "books",
    "toys",
    "grocery",
    "beauty",
];
const REGIONS: &[&str] = &["north", "south", "east", "west"];
const DIAGNOSES: &[&str] = &[
    "hypertension",
    "diabetes",
    "asthma",
    "arthritis",
    "migraine",
    "flu",
    "healthy",
];

/// The clickstream schema shared by generator and scenarios.
pub fn clickstream_schema() -> Schema {
    Schema::new(vec![
        Field::required("event_id", DataType::Int),
        Field::required("user_id", DataType::Int),
        Field::required("session_id", DataType::Int),
        Field::required("ts", DataType::Timestamp),
        Field::required("product_id", DataType::Int),
        Field::required("category", DataType::Str),
        Field::required("action", DataType::Str),
        Field::new("price", DataType::Float),
        Field::required("country", DataType::Str),
    ])
    .unwrap()
}

/// E-commerce clickstream: sessions walk a view → cart → purchase funnel.
///
/// Planted structure: product popularity is Zipf(1.1); ~30% of views add to
/// cart, ~40% of carts purchase; purchase price correlates with category.
pub fn clickstream(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let products = Zipf::new(500, 1.1);
    let mut b = TableBuilder::with_capacity(clickstream_schema(), rows);
    let mut event_id = 0i64;
    let mut session_id = 0i64;
    let mut ts = 1_488_000_000_000i64; // fixed epoch start for determinism
    while b.num_rows() < rows {
        session_id += 1;
        let user_id = rng.gen_range(0..(rows as i64 / 4 + 1));
        let country = COUNTRIES[rng.gen_range(0..COUNTRIES.len())];
        let session_len = rng.gen_range(1..=8usize);
        for _ in 0..session_len {
            if b.num_rows() >= rows {
                break;
            }
            let product = products.sample(&mut rng) as i64;
            let category = CATEGORIES[(product % CATEGORIES.len() as i64) as usize];
            let base_price = 5.0 + (product % 97) as f64 * 3.7;
            ts += rng.gen_range(500..60_000);
            event_id += 1;
            let push = |action: &str, price: Value, b: &mut TableBuilder, eid: i64, t: i64| {
                b.push_row(vec![
                    Value::Int(eid),
                    Value::Int(user_id),
                    Value::Int(session_id),
                    Value::Timestamp(t),
                    Value::Int(product),
                    Value::Str(category.to_owned()),
                    Value::Str(action.to_owned()),
                    price,
                    Value::Str(country.to_owned()),
                ])
                .expect("generator row matches schema");
            };
            push("view", Value::Null, &mut b, event_id, ts);
            if rng.gen_bool(0.3) && b.num_rows() < rows {
                ts += rng.gen_range(500..30_000);
                event_id += 1;
                push("cart", Value::Float(base_price), &mut b, event_id, ts);
                if rng.gen_bool(0.4) && b.num_rows() < rows {
                    ts += rng.gen_range(500..30_000);
                    event_id += 1;
                    push("purchase", Value::Float(base_price), &mut b, event_id, ts);
                }
            }
        }
    }
    b.finish().expect("generator produces rectangular table")
}

/// The smart-energy telemetry schema.
pub fn telemetry_schema() -> Schema {
    Schema::new(vec![
        Field::required("reading_id", DataType::Int),
        Field::required("meter_id", DataType::Int),
        Field::required("ts", DataType::Timestamp),
        Field::required("kwh", DataType::Float),
        Field::new("voltage", DataType::Float),
        Field::required("temp_c", DataType::Float),
        Field::required("region", DataType::Str),
    ])
    .unwrap()
}

/// Smart-meter telemetry with a diurnal load curve and injected anomalies.
///
/// Planted structure: kwh follows a sinusoid over the hour-of-day plus
/// Gaussian noise; ~0.5% of readings are anomalous spikes (×8 load); kwh
/// correlates negatively with temperature (heating-dominated region).
pub fn telemetry(rows: usize, meters: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let meters = meters.max(1);
    let mut b = TableBuilder::with_capacity(telemetry_schema(), rows);
    let start = 1_488_000_000_000i64;
    for i in 0..rows {
        let meter = (i % meters) as i64;
        let step = (i / meters) as i64;
        let ts = start + step * 900_000; // 15-minute cadence per meter
        let hour = ((ts / 3_600_000) % 24) as f64;
        let diurnal = ((hour - 7.0) / 24.0 * 2.0 * std::f64::consts::PI).sin();
        let temp = 12.0
            + 9.0 * ((hour - 14.0) / 24.0 * 2.0 * std::f64::consts::PI).cos()
            + normal(&mut rng, 0.0, 1.5);
        // Heating-dominated load: the temperature term outweighs the diurnal
        // one so kwh correlates negatively with temp_c (the forecasting
        // challenges rely on this signal).
        let base = 0.5 + 0.2 * diurnal + 0.05 * (18.0 - temp) + normal(&mut rng, 0.0, 0.05);
        let kwh = if rng.gen_bool(0.005) {
            base.max(0.05) * 8.0
        } else {
            base.max(0.05)
        };
        let voltage = if rng.gen_bool(0.02) {
            Value::Null // sensor dropout
        } else {
            Value::Float(230.0 + normal(&mut rng, 0.0, 2.0))
        };
        b.push_row(vec![
            Value::Int(i as i64),
            Value::Int(meter),
            Value::Timestamp(ts),
            Value::Float(kwh),
            voltage,
            Value::Float(temp),
            Value::Str(REGIONS[(meter % REGIONS.len() as i64) as usize].to_owned()),
        ])
        .expect("generator row matches schema");
    }
    b.finish().expect("generator produces rectangular table")
}

/// The healthcare records schema (quasi-identifiers + sensitive attribute).
pub fn health_schema() -> Schema {
    Schema::new(vec![
        Field::required("patient_id", DataType::Int),
        Field::required("age", DataType::Int),
        Field::required("zip", DataType::Str),
        Field::required("sex", DataType::Str),
        Field::required("diagnosis", DataType::Str),
        Field::required("visits", DataType::Int),
        Field::required("cost", DataType::Float),
    ])
    .unwrap()
}

/// Patient records: `age`/`zip`/`sex` are quasi-identifiers, `diagnosis`
/// is the sensitive attribute, and `cost` grows with age and visit count
/// (so regression has signal and anonymisation has utility cost).
pub fn health_records(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let zips = Zipf::new(40, 0.8);
    let mut b = TableBuilder::with_capacity(health_schema(), rows);
    for i in 0..rows {
        let age = rng.gen_range(18..95i64);
        let zip = format!("2{:04}", 6000 + zips.sample(&mut rng) as i64);
        let sex = if rng.gen_bool(0.52) { "F" } else { "M" };
        // Older patients skew toward chronic diagnoses.
        let dx_idx = if age > 60 {
            rng.gen_range(0..4usize)
        } else {
            rng.gen_range(2..DIAGNOSES.len())
        };
        let visits = 1 + (age - 18) / 15 + rng.gen_range(0..4i64);
        let cost = 120.0 * visits as f64 + 8.0 * age as f64 + normal(&mut rng, 0.0, 150.0);
        b.push_row(vec![
            Value::Int(i as i64),
            Value::Int(age),
            Value::Str(zip),
            Value::Str(sex.to_owned()),
            Value::Str(DIAGNOSES[dx_idx].to_owned()),
            Value::Int(visits),
            Value::Float(cost.max(50.0)),
        ])
        .expect("generator row matches schema");
    }
    b.finish().expect("generator produces rectangular table")
}

/// The fraud-detection event-stream schema (time-ordered by arrival).
pub fn fraud_schema() -> Schema {
    Schema::new(vec![
        Field::required("txn_id", DataType::Int),
        Field::required("account_id", DataType::Int),
        Field::required("ts", DataType::Timestamp),
        Field::required("amount", DataType::Float),
        Field::required("merchant", DataType::Str),
        Field::required("channel", DataType::Str),
        Field::required("is_fraud", DataType::Bool),
    ])
    .unwrap()
}

const MERCHANTS: &[&str] = &[
    "grocery",
    "fuel",
    "travel",
    "electronics",
    "restaurant",
    "pharmacy",
    "online",
    "atm",
];
const CHANNELS: &[&str] = &["card_present", "online", "contactless", "transfer"];

/// Card-transaction event stream for the fraud vertical, arrival-ordered
/// with planted out-of-order (late) events.
///
/// Rows arrive at a fixed 10 ms cadence; with probability `late_rate`, a
/// row's *event* timestamp lags its arrival slot by 60 s (an upstream
/// buffering delay), so it lands behind any watermark whose allowed
/// lateness is under a minute. No late rows are planted in the first
/// `guard` rows — set `guard` to at least one micro-batch so the stream's
/// watermark exists before the first late row arrives, which makes the
/// planted count exactly the number of rows a `drop`/`side-channel`
/// policy diverts.
///
/// Planted fraud structure: ~1.5% of transactions are fraudulent with ×12
/// amounts concentrated in the `online`/`transfer` channels.
///
/// Returns the table and the number of late rows planted.
pub fn fraud_stream(rows: usize, seed: u64, late_rate: f64, guard: usize) -> (Table, usize) {
    const STEP_MS: i64 = 10;
    const LATE_LAG_MS: i64 = 60_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let accounts = Zipf::new(200, 0.9);
    let mut b = TableBuilder::with_capacity(fraud_schema(), rows);
    let start = 1_488_000_000_000i64;
    let mut planted_late = 0usize;
    for i in 0..rows {
        let arrival = start + i as i64 * STEP_MS;
        let late = i >= guard && rng.gen_bool(late_rate.clamp(0.0, 1.0));
        let ts = if late { arrival - LATE_LAG_MS } else { arrival };
        if late {
            planted_late += 1;
        }
        let account = accounts.sample(&mut rng) as i64;
        let fraud = rng.gen_bool(0.015);
        let channel = if fraud && rng.gen_bool(0.8) {
            if rng.gen_bool(0.5) {
                "online"
            } else {
                "transfer"
            }
        } else {
            CHANNELS[rng.gen_range(0..CHANNELS.len())]
        };
        let base = 8.0 + (normal(&mut rng, 0.0, 1.0).abs() * 45.0);
        let amount = if fraud { base * 12.0 } else { base };
        b.push_row(vec![
            Value::Int(i as i64),
            Value::Int(account),
            Value::Timestamp(ts),
            Value::Float((amount * 100.0).round() / 100.0),
            Value::Str(MERCHANTS[rng.gen_range(0..MERCHANTS.len())].to_owned()),
            Value::Str(channel.to_owned()),
            Value::Bool(fraud),
        ])
        .expect("generator row matches schema");
    }
    (
        b.finish().expect("generator produces rectangular table"),
        planted_late,
    )
}

/// A generic random table for fuzzing: `cols` columns cycling through the
/// scalar types, `rows` rows, ~5% nulls in nullable columns.
pub fn random_table(rows: usize, cols: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let types = [
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Bool,
        DataType::Timestamp,
    ];
    let fields: Vec<Field> = (0..cols)
        .map(|c| Field::new(format!("c{c}"), types[c % types.len()]))
        .collect();
    let schema = Schema::new(fields).expect("generated names unique");
    let mut b = TableBuilder::with_capacity(schema.clone(), rows);
    let word = Uniform::new(3usize, 10usize);
    for _ in 0..rows {
        let row: Vec<Value> = schema
            .fields()
            .iter()
            .map(|f| {
                if rng.gen_bool(0.05) {
                    return Value::Null;
                }
                match f.data_type {
                    DataType::Int => Value::Int(rng.gen_range(-1000..1000)),
                    DataType::Float => Value::Float(rng.gen_range(-1e3..1e3)),
                    DataType::Bool => Value::Bool(rng.gen()),
                    DataType::Timestamp => Value::Timestamp(rng.gen_range(0..2_000_000_000_000)),
                    DataType::Str => {
                        let len = word.sample(&mut rng);
                        Value::Str(
                            (&mut rng)
                                .sample_iter(&Alphanumeric)
                                .take(len)
                                .map(char::from)
                                .collect(),
                        )
                    }
                }
            })
            .collect();
        b.push_row(row).expect("generated row matches schema");
    }
    b.finish().expect("generator produces rectangular table")
}

/// A random five-type table for layout fuzzing: columns `i` (Int), `x`
/// (Float), `s` (Str), `b` (Bool) and `t` (Timestamp), every one nullable
/// with ~20% nulls. Floats come from NaNs with distinct payloads, ±0.0,
/// ±∞ and ordinary values; strings from empty, ASCII and multi-byte UTF-8
/// text — the cells where a layout can disagree with itself.
pub fn edge_table(rows: usize, seed: u64) -> Table {
    const FLOATS: [u64; 8] = [
        0x0000_0000_0000_0000, // 0.0
        0x8000_0000_0000_0000, // -0.0
        0x7ff8_0000_0000_0000, // canonical NaN
        0x7ff8_0000_0000_0001, // quiet NaN, payload 1
        0xfff4_0000_0000_00ff, // negative signalling NaN
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x3ff8_0000_0000_0000, // 1.5
    ];
    const STRS: [&str; 7] = ["", "a", "Zürich", "日本", "🦀x", "ab cd", "é"];
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("x", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("b", DataType::Bool),
        Field::new("t", DataType::Timestamp),
    ])
    .expect("distinct names");
    let mut b = TableBuilder::with_capacity(schema.clone(), rows);
    for _ in 0..rows {
        let row: Vec<Value> = schema
            .fields()
            .iter()
            .map(|f| {
                if rng.gen_bool(0.2) {
                    return Value::Null;
                }
                match f.data_type {
                    DataType::Int => Value::Int(rng.gen_range(-3..4)),
                    DataType::Float => Value::Float(if rng.gen_bool(0.7) {
                        f64::from_bits(FLOATS[rng.gen_range(0..FLOATS.len())])
                    } else {
                        rng.gen_range(-1e3..1e3)
                    }),
                    DataType::Str => Value::Str(STRS[rng.gen_range(0..STRS.len())].to_owned()),
                    DataType::Bool => Value::Bool(rng.gen()),
                    DataType::Timestamp => Value::Timestamp(rng.gen_range(0..5)),
                }
            })
            .collect();
        b.push_row(row).expect("generated row matches schema");
    }
    b.finish().expect("generator produces rectangular table")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[60]);
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn zipf_rejects_empty_domain() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn normal_has_requested_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        assert_eq!(clickstream(200, 42), clickstream(200, 42));
        assert_ne!(clickstream(200, 42), clickstream(200, 43));
        assert_eq!(telemetry(100, 5, 9), telemetry(100, 5, 9));
        assert_eq!(health_records(100, 1), health_records(100, 1));
        assert_eq!(random_table(50, 6, 3), random_table(50, 6, 3));
    }

    #[test]
    fn clickstream_has_requested_rows_and_funnel() {
        let t = clickstream(2000, 11);
        assert_eq!(t.num_rows(), 2000);
        let actions = t.column("action").unwrap();
        let mut views = 0;
        let mut carts = 0;
        let mut purchases = 0;
        for v in actions.iter_values() {
            match v.as_str().unwrap() {
                "view" => views += 1,
                "cart" => carts += 1,
                "purchase" => purchases += 1,
                other => panic!("unexpected action {other}"),
            }
        }
        assert!(views > carts, "funnel: views {views} > carts {carts}");
        assert!(
            carts > purchases,
            "funnel: carts {carts} > purchases {purchases}"
        );
        assert!(purchases > 0);
    }

    #[test]
    fn clickstream_views_have_null_price() {
        let t = clickstream(500, 5);
        for row in t.iter_rows() {
            let action = row[6].as_str().unwrap().to_owned();
            if action == "view" {
                assert!(row[7].is_null());
            } else {
                assert!(!row[7].is_null());
            }
        }
    }

    #[test]
    fn telemetry_has_anomalies_and_dropouts() {
        let t = telemetry(10_000, 20, 3);
        assert_eq!(t.num_rows(), 10_000);
        let kwh = t.column("kwh").unwrap();
        let s = crate::stats::summarize(kwh).unwrap();
        assert!(
            s.max > 4.0 * s.mean,
            "anomalous spikes present: max {} mean {}",
            s.max,
            s.mean
        );
        assert!(
            t.column("voltage").unwrap().null_count() > 0,
            "sensor dropouts present"
        );
    }

    #[test]
    fn telemetry_kwh_negatively_correlates_with_temp() {
        let t = telemetry(8000, 10, 4);
        let kwh: Vec<f64> = t
            .column("kwh")
            .unwrap()
            .iter_values()
            .map(|v| v.as_float().unwrap())
            .collect();
        let temp: Vec<f64> = t
            .column("temp_c")
            .unwrap()
            .iter_values()
            .map(|v| v.as_float().unwrap())
            .collect();
        let r = crate::stats::pearson(&kwh, &temp).unwrap();
        assert!(r < -0.05, "expected negative correlation, got {r}");
    }

    #[test]
    fn health_records_have_quasi_identifier_structure() {
        let t = health_records(3000, 8);
        assert_eq!(t.num_rows(), 3000);
        // cost correlates positively with age.
        let age: Vec<f64> = t
            .column("age")
            .unwrap()
            .iter_values()
            .map(|v| v.as_float().unwrap())
            .collect();
        let cost: Vec<f64> = t
            .column("cost")
            .unwrap()
            .iter_values()
            .map(|v| v.as_float().unwrap())
            .collect();
        assert!(crate::stats::pearson(&age, &cost).unwrap() > 0.3);
        // All diagnoses drawn from the fixed vocabulary.
        for v in t.column("diagnosis").unwrap().iter_values() {
            assert!(DIAGNOSES.contains(&v.as_str().unwrap()));
        }
    }

    #[test]
    fn fraud_stream_plants_exact_late_rows_behind_the_guard() {
        let (t, planted) = fraud_stream(4000, 17, 0.05, 256);
        assert_eq!(t.num_rows(), 4000);
        assert!(planted > 0, "late rows planted at 5% over 4000 rows");
        // Recount from the data: a row is late iff its ts lags its arrival
        // slot (arrival = start + i * 10ms), and none appear in the guard.
        let start = 1_488_000_000_000i64;
        let mut recounted = 0usize;
        for (i, row) in t.iter_rows().enumerate() {
            let ts = match row[2] {
                Value::Timestamp(v) => v,
                ref other => panic!("unexpected ts {other:?}"),
            };
            let arrival = start + i as i64 * 10;
            if ts < arrival {
                assert_eq!(arrival - ts, 60_000, "late lag is exactly 60s");
                assert!(i >= 256, "no late rows inside the guard (row {i})");
                recounted += 1;
            }
        }
        assert_eq!(recounted, planted);
        // Determinism and fraud structure.
        assert_eq!(
            fraud_stream(500, 3, 0.02, 64).0,
            fraud_stream(500, 3, 0.02, 64).0
        );
        let frauds = t
            .column("is_fraud")
            .unwrap()
            .iter_values()
            .filter(|v| *v == Value::Bool(true))
            .count();
        assert!(frauds > 0, "fraud rows planted");
    }

    #[test]
    fn random_table_shape_and_nulls() {
        let t = random_table(400, 7, 2);
        assert_eq!(t.num_rows(), 400);
        assert_eq!(t.num_columns(), 7);
        let total_nulls: usize = t.columns().iter().map(|c| c.null_count()).sum();
        assert!(total_nulls > 0, "some nulls expected");
    }
}
