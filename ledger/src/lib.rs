//! # toreador-ledger
//!
//! The campaign ledger: one command that runs each headline path of the
//! repository as a workload, checks its output against an oracle, and
//! prints named, repeatable numbers — end to end, and layer by layer.
//!
//! Every layer is measured **from outside**: a timer around a call into a
//! layer's public function, plus the counts the engine already returns in
//! its metrics and trace journal. Nothing outside this crate is edited,
//! and the crate calls only API that later refactors keep (the allowlist
//! is in the README), so the same ledger can be run against every later
//! commit.

pub mod batch;
pub mod catalog;
pub mod cohort;
pub mod countio;
pub mod host;
pub mod loadgen;
pub mod probes;
pub mod report;
pub mod sizing;
pub mod span;
pub mod stats;
pub mod stream;
pub mod suite;
pub mod workload;
