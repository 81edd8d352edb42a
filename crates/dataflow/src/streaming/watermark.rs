//! Event-time watermarks and the late-data policy.
//!
//! The watermark is the loop's claim about completed event time: once it
//! passes `t`, no row with timestamp `< t` is expected (rows that arrive
//! anyway are *late*). It is derived per batch as `max observed event time
//! − allowed lateness` and only ever moves forward. Each batch is
//! classified against the watermark as it stood *before* the batch — a
//! batch can never make its own rows late.

use serde::{Deserialize, Serialize};
use toreador_data::table::Table;
use toreador_data::value::Value;

use crate::error::{FlowError, Result};

/// What happens to rows that arrive behind the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LatePolicy {
    /// Fold late rows into state anyway (counted, journalled, but kept).
    #[default]
    Absorb,
    /// Divert late rows to a side channel the caller can inspect; state
    /// sees only on-time rows.
    SideChannel,
    /// Discard late rows; state sees only on-time rows.
    Drop,
}

impl std::fmt::Display for LatePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LatePolicy::Absorb => "absorb",
            LatePolicy::SideChannel => "side-channel",
            LatePolicy::Drop => "drop",
        })
    }
}

impl std::str::FromStr for LatePolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "absorb" => Ok(LatePolicy::Absorb),
            "side-channel" | "side_channel" | "side" => Ok(LatePolicy::SideChannel),
            "drop" => Ok(LatePolicy::Drop),
            other => Err(format!(
                "unknown late policy {other:?} (expected absorb|side-channel|drop)"
            )),
        }
    }
}

/// Tracks the event-time watermark across batches.
#[derive(Debug, Clone, Copy)]
pub struct WatermarkClock {
    allowed_lateness_ms: i64,
    max_event_ts: Option<i64>,
}

impl WatermarkClock {
    pub fn new(allowed_lateness_ms: i64) -> Self {
        WatermarkClock {
            allowed_lateness_ms: allowed_lateness_ms.max(0),
            max_event_ts: None,
        }
    }

    /// Restore the clock to a recovered watermark (resume path).
    pub fn restore(allowed_lateness_ms: i64, watermark_ms: Option<i64>) -> Self {
        let allowed_lateness_ms = allowed_lateness_ms.max(0);
        WatermarkClock {
            allowed_lateness_ms,
            max_event_ts: watermark_ms.map(|w| w.saturating_add(allowed_lateness_ms)),
        }
    }

    /// The current watermark: rows with `ts < watermark` are late. `None`
    /// until the first row has been observed. Event times come from input
    /// data, so the arithmetic saturates at the ends of the `i64` range
    /// instead of wrapping.
    pub fn watermark(&self) -> Option<i64> {
        self.max_event_ts
            .map(|t| t.saturating_sub(self.allowed_lateness_ms))
    }

    /// Observe a batch's maximum event time; returns the new watermark when
    /// it advanced (watermarks never move backwards).
    pub fn observe(&mut self, batch_max_ts: i64) -> Option<i64> {
        let advanced = match self.max_event_ts {
            None => true,
            Some(prev) => batch_max_ts > prev,
        };
        if advanced {
            self.max_event_ts = Some(
                self.max_event_ts
                    .map_or(batch_max_ts, |p| p.max(batch_max_ts)),
            );
            self.watermark()
        } else {
            None
        }
    }
}

/// Read a row's event timestamp (`Timestamp` or `Int` column).
pub(crate) fn event_ts(v: Value) -> Result<i64> {
    match v {
        Value::Timestamp(t) | Value::Int(t) => Ok(t),
        other => Err(FlowError::TypeCheck(format!(
            "timestamp column contains {other:?}"
        ))),
    }
}

/// The `(min, max)` event time of a batch, or `None` when it has no rows.
pub fn event_bounds(batch: &Table, ts_column: &str) -> Result<Option<(i64, i64)>> {
    let ts = batch.column(ts_column)?;
    let mut bounds: Option<(i64, i64)> = None;
    for v in ts.iter_values() {
        let t = event_ts(v)?;
        bounds = Some(match bounds {
            None => (t, t),
            Some((lo, hi)) => (lo.min(t), hi.max(t)),
        });
    }
    Ok(bounds)
}

/// How many rows of `batch` are late against `watermark`: the size of
/// [`split_on_time`]'s late half, counted from the timestamp lane without
/// building either half — all [`LatePolicy::Absorb`] needs.
pub fn count_late(batch: &Table, ts_column: &str, watermark: Option<i64>) -> Result<u64> {
    let Some(w) = watermark else {
        return Ok(0);
    };
    let mut late = 0;
    for v in batch.column(ts_column)?.iter_values() {
        late += u64::from(event_ts(v)? < w);
    }
    Ok(late)
}

/// Split a batch into `(on_time, late)` against `watermark` in one pass
/// (rows with `ts < watermark` are late; with no watermark yet, everything
/// is on time). Row order is preserved within each half.
pub fn split_on_time(
    batch: &Table,
    ts_column: &str,
    watermark: Option<i64>,
) -> Result<(Table, Table)> {
    let Some(w) = watermark else {
        let empty = batch.slice(0, 0).map_err(FlowError::Data)?;
        return Ok((batch.clone(), empty));
    };
    let ts = batch.column(ts_column)?;
    let mut on_time = Vec::new();
    let mut late = Vec::new();
    for (i, v) in ts.iter_values().enumerate() {
        if event_ts(v)? < w {
            late.push(i);
        } else {
            on_time.push(i);
        }
    }
    Ok((
        batch.take(&on_time).map_err(FlowError::Data)?,
        batch.take(&late).map_err(FlowError::Data)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use toreador_data::schema::{Field, Schema};
    use toreador_data::value::DataType;

    fn ts_table(stamps: &[i64]) -> Table {
        let schema = Schema::new(vec![Field::new("ts", DataType::Timestamp)]).unwrap();
        Table::from_rows(schema, stamps.iter().map(|&t| vec![Value::Timestamp(t)])).unwrap()
    }

    #[test]
    fn watermark_trails_max_event_time_and_never_regresses() {
        let mut clock = WatermarkClock::new(500);
        assert_eq!(clock.watermark(), None);
        assert_eq!(clock.observe(2_000), Some(1_500));
        // Older batch: no advance, watermark holds.
        assert_eq!(clock.observe(1_000), None);
        assert_eq!(clock.watermark(), Some(1_500));
        assert_eq!(clock.observe(3_000), Some(2_500));
    }

    #[test]
    fn restored_clock_resumes_at_the_recovered_watermark() {
        let clock = WatermarkClock::restore(500, Some(1_500));
        assert_eq!(clock.watermark(), Some(1_500));
        let fresh = WatermarkClock::restore(500, None);
        assert_eq!(fresh.watermark(), None);
    }

    #[test]
    fn extreme_timestamps_saturate_instead_of_wrapping() {
        let mut clock = WatermarkClock::new(500);
        assert_eq!(clock.observe(i64::MIN + 10), Some(i64::MIN));
        let t = ts_table(&[i64::MIN + 20]);
        assert_eq!(count_late(&t, "ts", clock.watermark()).unwrap(), 0);
        let restored = WatermarkClock::restore(500, clock.watermark());
        assert_eq!(restored.watermark(), Some(i64::MIN));
    }

    #[test]
    fn split_classifies_strictly_before_the_watermark() {
        let t = ts_table(&[100, 999, 1_000, 2_000]);
        let (on_time, late) = split_on_time(&t, "ts", Some(1_000)).unwrap();
        assert_eq!(on_time.num_rows(), 2, "1000 itself is on time");
        assert_eq!(late.num_rows(), 2);
        assert_eq!(count_late(&t, "ts", Some(1_000)).unwrap(), 2);
        // No watermark yet: nothing is late.
        let (on_time, late) = split_on_time(&t, "ts", None).unwrap();
        assert_eq!(on_time.num_rows(), 4);
        assert_eq!(late.num_rows(), 0);
        assert_eq!(count_late(&t, "ts", None).unwrap(), 0);
    }

    #[test]
    fn late_policy_parses_and_displays() {
        for p in [
            LatePolicy::Absorb,
            LatePolicy::SideChannel,
            LatePolicy::Drop,
        ] {
            assert_eq!(p.to_string().parse::<LatePolicy>().unwrap(), p);
        }
        assert_eq!(
            "side".parse::<LatePolicy>().unwrap(),
            LatePolicy::SideChannel
        );
        assert!("whatever".parse::<LatePolicy>().is_err());
    }
}
