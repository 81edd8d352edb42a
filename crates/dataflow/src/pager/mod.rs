//! Out-of-core paging: fixed-size page files and the spill manager
//! operators hand over-budget runs to.
//!
//! The TOREADOR paper scouts campaigns over datasets that do not fit in
//! RAM; this module is the engine's answer. It has two layers:
//!
//! 1. [`file`] — the paged on-disk columnar format: fixed [`PAGE_SIZE`]
//!    slots, each CRC32-framed exactly like the checkpoint wave files
//!    (the frame and lane codecs live in [`crate::codec`], shared with
//!    checkpointing so the two stay byte-identical by construction). Page
//!    0 is a directory naming the row count, schema and per-lane extents;
//!    data pages hold each lane's cells contiguously.
//! 2. [`spill`] — the [`SpillManager`]: writes a [`Table`] run straight
//!    into a page file (temp-write + fsync + rename + dir-fsync, so a
//!    crash never leaves a readable half-file), reads runs back page by
//!    page, and sweeps everything on release/drop.
//!
//! The memory budget threads in from `ExecConfig::memory_budget_bytes`:
//! operators compare their staged bytes (the shuffle's per-target
//! staging, the aggregation's resident map output) against
//! [`SpillManager::budget_bytes`] and spill whole runs. The budget bounds
//! that staging and nothing else: a spilled run is written and read back
//! whole, so the run itself is resident on both sides of the disk.
//!
//! [`Table`]: toreador_data::table::Table

pub mod file;
pub mod spill;

pub use file::{LaneExtent, PageDirectory, PageFile, PAGE_PAYLOAD, PAGE_SIZE};
pub use spill::{SpillHandle, SpillManager, SPILL_OP_AGGREGATE, SPILL_OP_SHUFFLE};
