//! # toreador-data
//!
//! Columnar in-memory data substrate for the TOREADOR reproduction.
//!
//! This crate is the bottom of the workspace dependency DAG. It provides:
//!
//! * [`value::Value`] / [`value::DataType`] — dynamically typed scalars for
//!   row-at-a-time construction, display and the test oracles;
//! * [`schema::Schema`] / [`schema::Field`] — named, typed record schemas;
//! * [`column::Column`] — immutable typed lanes (shared `Arc` buffers seen
//!   through offset windows; text as offsets plus bytes) with validity
//!   bitmaps, grown only through [`column::ColumnBuilder`];
//! * [`table::Table`] — immutable rectangular batches with relational
//!   kernels (project / filter / take / sort / concat);
//! * [`partition::PartitionedTable`] — horizontal partitioning, the unit of
//!   data-parallelism for the dataflow engine;
//! * [`csv`] — RFC-4180-subset reader/writer with type inference;
//! * [`json`] — JSON Lines reader/writer (the "variety" ingest path);
//! * [`generate`] — seeded synthetic generators for the three TOREADOR
//!   vertical scenarios (e-commerce clickstream, smart-energy telemetry,
//!   healthcare records);
//! * [`stats`] — mergeable descriptive statistics (Welford, quantiles,
//!   Pearson, histograms).
//!
//! ## Example
//!
//! ```
//! use toreador_data::prelude::*;
//!
//! let table = toreador_data::generate::clickstream(1_000, 42);
//! let mask: Vec<bool> = table
//!     .column("action")
//!     .unwrap()
//!     .iter_values()
//!     .map(|v| v.as_str().map(|s| s == "purchase").unwrap_or(false))
//!     .collect();
//! let purchases = table.filter(&mask).unwrap();
//! assert!(purchases.num_rows() > 0);
//! ```

pub mod column;
pub mod csv;
pub mod error;
pub mod generate;
pub mod json;
pub mod partition;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

/// Convenient glob import of the common types.
pub mod prelude {
    pub use crate::column::Column;
    pub use crate::error::{DataError, Result as DataResult};
    pub use crate::partition::PartitionedTable;
    pub use crate::schema::{Field, Schema};
    pub use crate::table::{Table, TableBuilder};
    pub use crate::value::{DataType, Row, Value};
}
