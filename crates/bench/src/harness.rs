//! The one measurement path of the `bench_*` bins: interleaved best-of-N
//! windows, the JSON every `results/BENCH_*.json` is written in, and the
//! read-save-gate flow behind `--check-baseline`.
//!
//! **The arm-order rule.** A window's cost depends on what ran just
//! before it (caches, allocator, CPU frequency, a neighbour's steal
//! time), so the arms of one comparison take their windows in rotation:
//! rep `r` runs every arm once, starting from arm `r mod arms`. Each arm
//! owns its state — built once, by the caller, before the first window —
//! so one arm's training cannot warm or age another arm's model.
//! Compare ratios inside one file, never rows across files.

use crate::{baseline, output, BenchArgs};
use std::fmt::Display;
use std::time::Instant;

/// One arm of a comparison: a closure over the arm's own state that
/// measures one window per call.
pub type Arm<'a, T = f64> = Box<dyn FnMut() -> T + 'a>;

/// Runs `reps` rotated reps over `arms` and returns each arm's windows
/// in rep order. Reports on stderr how many windows it ran, so a printed
/// "best of" is never a constant the loop did not use.
pub fn rotate<T>(label: &str, reps: usize, arms: &mut [Arm<'_, T>]) -> Vec<Vec<T>> {
    eprintln!(
        "[harness] {label}: {} arms x {reps} rotated windows",
        arms.len()
    );
    let mut windows: Vec<Vec<T>> = arms.iter().map(|_| Vec::with_capacity(reps)).collect();
    for rep in 0..reps {
        for i in 0..arms.len() {
            let arm = (rep + i) % arms.len();
            windows[arm].push(arms[arm]());
        }
    }
    windows
}

/// [`rotate`], keeping each arm's best (smallest) window. Scheduling
/// hiccups only ever slow a window down, so the minimum filters OS noise
/// while a real regression shows in every window.
pub fn best_of(label: &str, reps: usize, arms: &mut [Arm<'_>]) -> Vec<f64> {
    keep_best(rotate(label, reps, arms), |&w| w)
}

/// Each arm's window with the smallest `cost`, from [`rotate`]'s output
/// (panics on an arm without windows).
pub fn keep_best<T>(windows: Vec<Vec<T>>, cost: impl Fn(&T) -> f64) -> Vec<T> {
    windows
        .into_iter()
        .map(|w| {
            w.into_iter()
                .min_by(|a, b| cost(a).total_cmp(&cost(b)))
                .expect("reps > 0")
        })
        .collect()
}

/// Nanoseconds `op` took.
pub fn time_ns(op: impl FnOnce()) -> f64 {
    let start = Instant::now();
    op();
    start.elapsed().as_nanos() as f64
}

/// The `p`-quantile of ascending `sorted` latencies, at index
/// `round((len - 1) * p)`: the one definition every latency arm uses.
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// One JSON object on one line: a result row, a summary, or a section.
/// Fields keep insertion order; strings are written verbatim (the bins
/// emit no character that needs escaping).
#[derive(Debug, Clone, Default)]
pub struct Row(Vec<(String, String)>);

impl Row {
    /// An empty row.
    #[must_use]
    pub fn new() -> Self {
        Row::default()
    }

    /// Appends a quoted string field.
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, format!("\"{value}\""))
    }

    /// Appends an integer or boolean field, written as `Display` does.
    #[must_use]
    pub fn int(self, key: &str, value: impl Display) -> Self {
        self.raw(key, value.to_string())
    }

    /// Appends a float with `decimals` digits after the point.
    #[must_use]
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Self {
        self.raw(key, format!("{value:.decimals$}"))
    }

    fn raw(mut self, key: &str, value: String) -> Self {
        self.0.push((key.to_string(), value));
        self
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A whole `results/BENCH_*.json`: `bench` and `mode` first, then the
/// entries in the order added, then the `summary` object.
#[derive(Debug, Clone)]
pub struct Report(Vec<(String, String)>);

impl Report {
    /// Opens a report with its `bench` and `mode` fields.
    #[must_use]
    pub fn new(bench: &str, mode: &str) -> Self {
        Report(Vec::new()).fields(Row::new().str("bench", bench).str("mode", mode))
    }

    /// Adds every field of `row` as a top-level field of its own line.
    #[must_use]
    pub fn fields(mut self, row: Row) -> Self {
        self.0.extend(row.0);
        self
    }

    /// Adds `row` as a one-line object under `key`.
    #[must_use]
    pub fn object(mut self, key: &str, row: &Row) -> Self {
        self.0.push((key.to_string(), row.render()));
        self
    }

    /// Adds `rows` as an array under `key`, one row per line.
    #[must_use]
    pub fn rows(mut self, key: &str, rows: &[Row]) -> Self {
        let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
        self.0
            .push((key.to_string(), format!("[\n{}\n  ]", lines.join(",\n"))));
        self
    }

    /// Closes the report with its `summary` object and renders it.
    #[must_use]
    pub fn render(self, summary: &Row) -> String {
        let entries: Vec<String> = self
            .object("summary", summary)
            .0
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", entries.join(",\n"))
    }
}

/// One `--check-baseline` comparison: a summary number held to its
/// committed value within [`baseline::TOLERANCE`].
#[derive(Debug, Clone)]
pub struct Gate {
    name: &'static str,
    measured: f64,
    floor: bool,
    skip: Option<String>,
}

impl Gate {
    /// A speed-up: may not fall below the committed value / tolerance.
    #[must_use]
    pub fn floor(name: &'static str, measured: f64) -> Self {
        Gate {
            name,
            measured,
            floor: true,
            skip: None,
        }
    }

    /// A cost: may not rise above the committed value x tolerance.
    #[must_use]
    pub fn ceiling(name: &'static str, measured: f64) -> Self {
        Gate {
            floor: false,
            ..Gate::floor(name, measured)
        }
    }

    /// Skips the comparison, with a notice naming `why`, when `why` is
    /// `Some` — a ratio this host cannot reproduce (it lacks the ISA the
    /// committed baseline was measured with).
    #[must_use]
    pub fn unless(self, why: Option<String>) -> Self {
        Gate { skip: why, ..self }
    }
}

/// Prints `json`, saves it as `results/<file>` and, under
/// `--check-baseline PATH`, holds every gate to PATH's committed value. The baseline is read
/// *before* saving: it is usually the file this run overwrites. Exits 1
/// when the save fails, the baseline is unreadable or lacks a gated
/// name, or a gate regressed — after printing every gate's verdict.
pub fn finish(args: &BenchArgs, file: &str, json: &str, gates: &[Gate]) {
    let committed = args.check_baseline.as_deref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("could not read baseline {path}: {e}");
            std::process::exit(1);
        });
        (path, text)
    });
    print!("{json}");
    match output::save(file, json) {
        Ok(path) => println!("[saved] {}", path.display()),
        Err(e) => {
            eprintln!("could not save {file}: {e}");
            std::process::exit(1);
        }
    }
    let Some((path, text)) = committed else {
        return;
    };
    let mut regressed = false;
    for gate in gates {
        let name = gate.name;
        let Some(committed) = baseline::field(&text, name) else {
            eprintln!("baseline {path} has no {name} summary");
            regressed = true;
            continue;
        };
        if let Some(why) = &gate.skip {
            println!("baseline check SKIPPED for {name}: {why}; ratios are not comparable");
        } else if gate.floor {
            regressed |= !baseline::holds_floor(name, gate.measured, committed);
        } else {
            regressed |= !baseline::holds_ceiling(name, gate.measured, committed);
        }
    }
    if regressed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn rotation_spreads_the_first_slot_and_keeps_state_per_arm() {
        for (reps, n) in [(9, 2), (3, 3), (4, 4), (7, 3), (2, 5)] {
            let order = RefCell::new(Vec::new());
            let mut arms: Vec<Arm<'_, usize>> = (0..n)
                .map(|i| {
                    let order = &order;
                    let mut calls = 0usize;
                    Box::new(move || {
                        order.borrow_mut().push(i);
                        calls += 1;
                        calls
                    }) as Arm<'_, usize>
                })
                .collect();
            let windows = rotate("test", reps, &mut arms);
            drop(arms);
            // Each arm saw only its own calls: 1, 2, .., reps.
            for w in &windows {
                assert_eq!(*w, (1..=reps).collect::<Vec<_>>());
            }
            let order = order.into_inner();
            for arm in 0..n {
                let first = order.chunks(n).filter(|rep| rep[0] == arm).count();
                assert!(
                    first == reps / n || first == reps.div_ceil(n),
                    "arm {arm} ran first {first} times in {reps} reps of {n} arms"
                );
            }
        }
    }

    #[test]
    fn best_of_keeps_the_minimum() {
        let mut arms: Vec<Arm<'_>> = [[3.0, 1.0, 2.0], [5.0, 7.0, 4.0]]
            .into_iter()
            .map(|w| {
                let mut it = w.into_iter();
                Box::new(move || it.next().unwrap()) as Arm<'_>
            })
            .collect();
        assert_eq!(best_of("test", 3, &mut arms), vec![1.0, 4.0]);
    }

    #[test]
    fn percentile_rounds_the_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&lat, 0.50), 51);
        assert_eq!(percentile(&lat, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    /// Every name a bin gates on, by the file it gates against.
    const GATED: [(&str, &str); 4] = [
        (
            "BENCH_kernels.json",
            "dot32_speedup poly_speedup chacha_wide_speedup sha256_speedup sweep_speedup \
             commit_speedup merge_view_speedup",
        ),
        (
            "BENCH_scale.json",
            "shard_ram_per_user_64x1024_raw fleet_merge_share_quick async_speedup_straggler",
        ),
        ("BENCH_serve.json", "p99_ratio_concurrent"),
        ("BENCH_transport.json", "tcp_mem_ratio_256"),
    ];

    #[test]
    fn every_gated_name_reads_back_from_the_writer_and_the_committed_files() {
        for (file, names) in GATED {
            let names: Vec<&str> = names.split(' ').collect();
            let summary = names.iter().enumerate().fold(Row::new(), |row, (i, name)| {
                row.num(name, 1.25 + i as f64, 2)
            });
            let json = Report::new("test", "quick")
                .rows("rows", &[Row::new().num("ns", 9.0, 1)])
                .render(&summary);
            let committed = std::fs::read_to_string(output::results_dir().join(file))
                .unwrap_or_else(|e| panic!("{file}: {e}"));
            for (i, name) in names.iter().enumerate() {
                assert_eq!(baseline::field(&json, name), Some(1.25 + i as f64));
                assert!(
                    baseline::field(&committed, name).is_some(),
                    "{file} has no {name}"
                );
            }
        }
    }

    /// One committed row per file, byte for byte, and the file skeleton
    /// around it: the committed files stay valid baselines.
    #[test]
    fn rows_render_byte_for_byte_as_the_committed_files() {
        let cases = [
            (
                Row::new()
                    .str("primitive", "dot")
                    .int("k", 16)
                    .str("level", "scalar")
                    .num("ns_per_op", 12.37, 2),
                r#"{"primitive": "dot", "k": 16, "level": "scalar", "ns_per_op": 12.37}"#,
            ),
            (
                Row::new()
                    .str("arm", "raw")
                    .int("training", false)
                    .int("queries", 135_575)
                    .num("qps", 169_468.7, 1)
                    .int("p50_ns", 6566)
                    .int("p99_ns", 12220),
                r#"{"arm": "raw", "training": false, "queries": 135575, "qps": 169468.7, "p50_ns": 6566, "p99_ns": 12220}"#,
            ),
            (
                Row::new()
                    .str("backend", "tcp+fault")
                    .num("drop_rate", 0.1, 2)
                    .int("iters", 7818)
                    .num("ns_per_cycle", 16259.3, 1)
                    .num("delivered_fraction", 0.902, 4),
                r#"{"backend": "tcp+fault", "drop_rate": 0.10, "iters": 7818, "ns_per_cycle": 16259.3, "delivered_fraction": 0.9020}"#,
            ),
            (
                Row::new()
                    .int("shards", 64)
                    .int("users_per_node", 1024)
                    .int("users", 65536)
                    .str("sharing", "raw")
                    .int("epochs", 10)
                    .num("ram_per_user_bytes", 3131.4, 1)
                    .num("epoch_secs", 0.0205, 4)
                    .num("bytes_per_node_per_epoch", 5748.9, 1)
                    .str("final_rmse_bits", "0x3fe69c12b2d3ebf9"),
                r#"{"shards": 64, "users_per_node": 1024, "users": 65536, "sharing": "raw", "epochs": 10, "ram_per_user_bytes": 3131.4, "epoch_secs": 0.0205, "bytes_per_node_per_epoch": 5748.9, "final_rmse_bits": "0x3fe69c12b2d3ebf9"}"#,
            ),
        ];
        for (row, expected) in cases {
            assert_eq!(row.render(), expected);
        }
        let json = Report::new("serve_topk", "quick")
            .fields(Row::new().int("top_k", 10))
            .rows(
                "results",
                &[Row::new().str("arm", "raw"), Row::new().str("arm", "model")],
            )
            .object("scheduler", &Row::new().int("nodes", 1024))
            .render(&Row::new().num("p99_ratio_concurrent", 2.31, 2));
        assert_eq!(
            json,
            "{\n  \"bench\": \"serve_topk\",\n  \"mode\": \"quick\",\n  \"top_k\": 10,\n  \
             \"results\": [\n    {\"arm\": \"raw\"},\n    {\"arm\": \"model\"}\n  ],\n  \
             \"scheduler\": {\"nodes\": 1024},\n  \
             \"summary\": {\"p99_ratio_concurrent\": 2.31}\n}\n"
        );
    }
}
