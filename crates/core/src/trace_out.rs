//! Per-epoch records as JSON lines: one line per executed node-epoch,
//! written from the node's [`EpochReport`] by the one writer both the
//! engine ([`EngineConfig::trace_out`](crate::engine::EngineConfig::trace_out))
//! and `rex-node --trace-out` use.
//!
//! A line holds, in this order: `node`, `epoch`, the four stage times
//! (`merge_ns`, `train_ns`, `share_ns`, `test_ns`), `commit_ns`,
//! `link_rows` (`null` for a full-form link), `new_points`, `bytes_in`,
//! `bytes_out`, `rmse_bits` (the test RMSE's IEEE-754 bits as 16 hex
//! digits, `null` without test data) and `digest` (the epoch's chained
//! commitment digest, 64 hex digits). Every field but the five `_ns`
//! times is determined by the run's seeds, so two runs of one scenario
//! on any driver or backend write the same lines but for those.
//!
//! ```text
//! {"node":0,"epoch":3,"merge_ns":..,"train_ns":..,"share_ns":..,"test_ns":..,"commit_ns":..,"link_rows":null,"new_points":40,"bytes_in":..,"bytes_out":..,"rmse_bits":"3fe1..","digest":"9c0e.."}
//! ```

// Every `rex-node --trace-out` process writes through this module.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::node::EpochReport;
use rex_sim::stage::STAGES;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// A JSON-lines file of epoch records, shared by every thread that
/// writes to it: each line is written whole under one lock.
pub struct TraceOut(Mutex<BufWriter<File>>);

impl TraceOut {
    /// Creates (or truncates) the file at `path`.
    ///
    /// # Errors
    /// When the file cannot be created.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(TraceOut(Mutex::new(BufWriter::new(File::create(path)?))))
    }

    /// Appends node `node`'s record of `epoch`.
    ///
    /// # Errors
    /// When the write fails.
    pub fn write(&self, node: usize, epoch: usize, report: &EpochReport) -> io::Result<()> {
        let mut line = record(node, epoch, report);
        line.push('\n');
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .write_all(line.as_bytes())
    }

    /// Writes out what is buffered.
    ///
    /// # Errors
    /// When the write fails.
    pub fn flush(&self) -> io::Result<()> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }
}

/// One record as its JSON line, without the newline.
#[must_use]
pub fn record(node: usize, epoch: usize, report: &EpochReport) -> String {
    let mut s = format!("{{\"node\":{node},\"epoch\":{epoch}");
    for stage in STAGES {
        let ns = report.stage_times.get(stage);
        let _ = write!(s, ",\"{}_ns\":{ns}", stage.label());
    }
    let _ = write!(s, ",\"commit_ns\":{}", report.commit_ns);
    match report.link_rows {
        Some(rows) => {
            let _ = write!(s, ",\"link_rows\":{rows}");
        }
        None => s.push_str(",\"link_rows\":null"),
    }
    let _ = write!(
        s,
        ",\"new_points\":{},\"bytes_in\":{},\"bytes_out\":{}",
        report.new_points, report.bytes_in, report.bytes_out
    );
    match report.rmse {
        Some(rmse) => {
            let _ = write!(s, ",\"rmse_bits\":\"{:016x}\"", rmse.to_bits());
        }
        None => s.push_str(",\"rmse_bits\":null"),
    }
    s.push_str(",\"digest\":\"");
    for b in report.commitment.digest {
        let _ = write!(s, "{b:02x}");
    }
    s.push_str("\"}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commitment::EpochCommitment;
    use rex_sim::stage::{Stage, StageTimes};

    #[test]
    fn a_record_is_one_flat_json_object() {
        let mut stage_times = StageTimes::new();
        stage_times.add(Stage::Train, 1_500);
        let mut report = EpochReport {
            stage_times,
            sgx_overhead_ns: 9,
            ram_bytes: 9,
            rmse: Some(0.5),
            new_points: 40,
            bytes_out: 700,
            bytes_in: 350,
            commitment: EpochCommitment {
                digest: [0xab; 32],
                tag: [0; 32],
            },
            link_rows: Some(12),
            commit_ns: 20,
        };
        assert_eq!(
            record(3, 7, &report),
            format!(
                "{{\"node\":3,\"epoch\":7,\"merge_ns\":0,\"train_ns\":1500,\"share_ns\":0,\
                 \"test_ns\":0,\"commit_ns\":20,\"link_rows\":12,\"new_points\":40,\
                 \"bytes_in\":350,\"bytes_out\":700,\"rmse_bits\":\"3fe0000000000000\",\
                 \"digest\":\"{}\"}}",
                "ab".repeat(32)
            )
        );
        (report.rmse, report.link_rows) = (None, None);
        let line = record(0, 0, &report);
        assert!(line.contains("\"link_rows\":null,") && line.contains("\"rmse_bits\":null,"));
    }
}
