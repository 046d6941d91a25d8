//! The four workloads: their fixed shapes, how `--seed` and `--seconds`
//! turn into a cluster config, and how a finished run turns into the
//! end-to-end metrics and the correctness verdict.

use crate::api;
use crate::host;
use crate::json::Metric;
use crate::stats;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Run length the epoch budgets, targets and pins are sized for; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const NOMINAL_SECONDS: u64 = 22;

/// The only seed whose exact outputs are pinned.
pub const PINNED_SEED: u64 = 42;

/// Dataset shape: MovieLens-latest-small. The dataset and its split are
/// part of the workload's shape (the paper trains on one fixed dataset),
/// so their seeds are constants; `--seed` drives everything drawn during
/// a run: topology wiring, SGD and share sampling, attestation keys and
/// the query stream.
const USERS: u32 = 610;
const ITEMS: u32 = 9_000;
const RATINGS: usize = 100_000;
const DATA_SEED: u64 = 42;
const SPLIT_SEED: u64 = 7;

/// Result-list length of every query (the paper's top-10).
pub const TOP_K: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Two deployed nodes over loopback sockets.
    Pair,
    /// The in-process fleet.
    Fleet,
    /// One deployed trainer publishing to a live closed-loop client.
    ServeLive,
}

/// Exact outputs at [`PINNED_SEED`] and [`NOMINAL_SECONDS`].
pub struct Pins {
    pub final_rmse_bits: u64,
    pub epochs_to_target: u64,
    pub payload_bytes_out: u64,
    pub write_syscalls: u64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    kind: Kind,
    nodes: usize,
    sharing: &'static str,
    topology: &'static str,
    sgx: bool,
    pub points: usize,
    steps: usize,
    /// Epochs run at [`NOMINAL_SECONDS`], sized so they take about that
    /// long at today's speed; other lengths scale it linearly.
    nominal_epochs: usize,
    /// Fleet-mean test RMSE the run must reach. The crossing falls about
    /// four fifths into the nominal run where the curve is still steep
    /// there (the pair, the fleet), so `time_to_target_s` covers most of
    /// the run; `serve-live`'s curve flattens early, so its crossing stays
    /// on the steep part, a third of the way in.
    pub target_rmse: f64,
    pub pins: Pins,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rex-raw",
        why: "REX proper on the deployed loop: latency-bound, SGD under 2% of the epoch, so \
              barriers, reactor parks and the commitment show and kernels do not",
        kind: Kind::Pair,
        nodes: 2,
        sharing: "raw",
        topology: "full",
        sgx: true,
        points: 300,
        steps: 300,
        nominal_epochs: 3_800,
        target_rmse: 0.5525,
        pins: Pins {
            final_rmse_bits: 0x3fe1_97ae_8632_6548,
            epochs_to_target: 3_114,
            payload_bytes_out: 0x1a4_f5a0,
            write_syscalls: 15_200,
        },
    },
    Workload {
        name: "ms-model",
        why: "the paper's model-sharing baseline, bandwidth-bound: serialisation, AEAD, framing, \
              bulk socket I/O and merge dominate, so a latency fix that costs throughput shows",
        kind: Kind::Pair,
        nodes: 2,
        sharing: "model",
        topology: "full",
        sgx: true,
        points: 300,
        steps: 300,
        nominal_epochs: 2_300,
        target_rmse: 0.5600,
        pins: Pins {
            final_rmse_bits: 0x3fe1_ceed_9e4c_7cc4,
            epochs_to_target: 1_901,
            payload_bytes_out: 0x7447_3320,
            write_syscalls: 13_800,
        },
    },
    Workload {
        name: "sim-fleet",
        why: "the paper's 610 one-user nodes in process: no sockets, no sessions, so SGD, store, \
              engine rounds, the pool and the commitment do the work; the bypass for net/crypto",
        kind: Kind::Fleet,
        nodes: 610,
        sharing: "raw",
        topology: "smallworld",
        sgx: false,
        points: 300,
        steps: 300,
        nominal_epochs: 29,
        target_rmse: 0.6215,
        pins: Pins {
            final_rmse_bits: 0x3fe3_d361_79e9_bbe7,
            epochs_to_target: 22,
            payload_bytes_out: 0x170e_2c20,
            write_syscalls: 0,
        },
    },
    Workload {
        name: "serve-live",
        why: "one trainer publishing snapshots to a closed-loop top-k client: reads the factors \
              the others write, so a training gain that slows serving (or the reverse) shows",
        kind: Kind::ServeLive,
        nodes: 1,
        sharing: "raw",
        topology: "full",
        sgx: false,
        points: 300,
        steps: 20_000,
        nominal_epochs: 4_800,
        target_rmse: 0.5200,
        pins: Pins {
            final_rmse_bits: 0x3fe0_6e1c_b69b_eb0e,
            epochs_to_target: 1_796,
            payload_bytes_out: 0,
            write_syscalls: 0,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one invocation asks for.
#[derive(Clone, Copy)]
pub struct Request {
    pub seed: u64,
    pub seconds: u64,
    /// Schema and correctness only: a tenth of the fleet, one set-up.
    pub smoke: bool,
    /// The traced run measures a third of the epochs and skips the
    /// repeated set-ups; its end-to-end numbers are not results.
    pub short: bool,
}

impl Request {
    /// A run of at least the nominal length must reach the target.
    pub fn must_reach_target(&self) -> bool {
        !self.smoke && !self.short && self.seconds >= NOMINAL_SECONDS
    }

    /// The pins hold for the pinned seed at exactly the nominal length:
    /// epochs scale with `--seconds`, and a longer run trains further.
    pub fn pinned(&self) -> bool {
        !self.smoke && !self.short && self.seconds == NOMINAL_SECONDS && self.seed == PINNED_SEED
    }
}

/// One invocation's measurements: the workload's outcome plus what was
/// taken around it.
pub struct Run {
    pub out: Outcome,
    /// Every cold set-up of the invocation, the measured run's included.
    pub setup_samples_s: Vec<f64>,
    /// The host probe before and after, ms.
    pub probe_ms: (f64, f64),
    pub steal_share: f64,
}

/// A finished workload, before metrics are derived from it.
pub struct Outcome {
    /// The measured run's own set-up, seconds.
    pub setup_s: f64,
    /// Completion time of each epoch on node 0 (or the engine's axis).
    pub epoch_done_s: Vec<f64>,
    /// Fleet-mean test RMSE after each epoch.
    pub rmse: Vec<f64>,
    pub nodes: usize,
    pub payload_bytes_out: u64,
    pub wire_bytes_out: u64,
    pub write_syscalls: u64,
    pub msgs_out: u64,
    pub msgs_in: u64,
    pub node_epochs_done: u64,
    pub serve: api::ServeStats,
    /// Every node as the run left it, for the layer probes and the replay.
    pub trained: Vec<api::TrainedNode>,
}

impl Workload {
    pub fn epochs(&self, req: &Request) -> usize {
        let seconds = if req.short {
            req.seconds as f64 / 3.0
        } else {
            req.seconds as f64
        };
        let scaled = self.nominal_epochs as f64 * seconds / NOMINAL_SECONDS as f64;
        (scaled.round() as usize).max(2)
    }

    fn node_count(&self, req: &Request) -> usize {
        if req.smoke && self.kind == Kind::Fleet {
            64
        } else {
            self.nodes
        }
    }

    pub fn is_sealed(&self) -> bool {
        self.sgx
    }

    pub fn is_fleet(&self) -> bool {
        self.kind == Kind::Fleet
    }

    pub fn is_serve_live(&self) -> bool {
        self.kind == Kind::ServeLive
    }

    /// Worker or node threads that execute `Node::epoch` concurrently.
    pub fn workers(&self) -> usize {
        self.nodes.min(2)
    }

    /// The cluster config as TOML text, the form every config enters the
    /// program in.
    pub fn toml(&self, req: &Request, epochs: usize) -> Result<String, String> {
        let n = self.node_count(req);
        let addrs = match self.kind {
            // The in-process fleet never dials; the list only sizes it.
            Kind::Fleet => (0..n)
                .map(|i| format!("127.0.0.1:{}", 10_000 + i))
                .collect(),
            Kind::Pair | Kind::ServeLive => api::loopback_addrs(n)?,
        };
        let nodes: Vec<String> = addrs.iter().map(|a| format!("\"{a}\"")).collect();
        Ok(format!(
            "nodes = [{nodes}]\n\
             epochs = {epochs}\n\
             sharing = \"{sharing}\"\n\
             algorithm = \"dpsgd\"\n\
             topology = \"{topology}\"\n\
             topology_seed = {topology_seed}\n\
             num_users = {USERS}\n\
             num_items = {ITEMS}\n\
             num_ratings = {RATINGS}\n\
             data_seed = {DATA_SEED}\n\
             split_seed = {SPLIT_SEED}\n\
             protocol_seed = {protocol_seed}\n\
             points_per_epoch = {points}\n\
             steps_per_epoch = {steps}\n\
             codec = \"dense\"\n\
             sgx = {sgx}\n\
             infra_seed = {infra_seed}\n",
            nodes = nodes.join(", "),
            sharing = self.sharing,
            topology = self.topology,
            topology_seed = req.seed.wrapping_add(1),
            protocol_seed = req.seed.wrapping_add(2),
            infra_seed = req.seed.wrapping_add(3),
            points = self.points,
            steps = self.steps,
            sgx = self.sgx,
        ))
    }

    fn config(&self, req: &Request, epochs: usize) -> Result<api::Config, String> {
        api::parse_config(&self.toml(req, epochs)?)
    }

    /// One cold set-up: everything up to the point epoch 0 may start, on
    /// a zero-epoch budget, torn down again.
    fn cold_setup_s(&self, req: &Request) -> Result<f64, String> {
        let cfg = self.config(req, 0)?;
        Ok(match self.kind {
            Kind::Fleet => api::run_fleet(&cfg, self.workers()).setup_s,
            Kind::Pair | Kind::ServeLive => api::run_deployed(&cfg, None, |_| {})?.setup_s,
        })
    }

    /// One batch of cold set-ups. The deployed workloads take one batch
    /// before and one after the measured section, so the median sees the
    /// host at both ends: at least 3 set-ups and 0.75 s each (a single
    /// 0.04 s sample cannot repeat). The fleet takes 2 set-ups before and
    /// none after: they are seconds long, and a second fleet next to the
    /// trained one would double the peak resident set the run reports.
    fn cold_setups(&self, req: &Request, after: bool) -> Result<Vec<f64>, String> {
        let mut samples = Vec::new();
        if req.smoke || req.short || (after && self.kind == Kind::Fleet) {
            return Ok(samples);
        }
        let (min, max, budget_s) = if self.kind == Kind::Fleet {
            (2, 2, 0.0)
        } else {
            (3, 30, 0.75)
        };
        let mut spent = 0.0;
        while samples.len() < min || (spent < budget_s && samples.len() < max) {
            let s = self.cold_setup_s(req)?;
            spent += s;
            samples.push(s);
        }
        Ok(samples)
    }

    pub fn run(&self, req: &Request) -> Result<Run, String> {
        let probe_before = host::probe_ms();
        let jiffies_before = host::cpu_jiffies();
        let mut setup_samples_s = self.cold_setups(req, false)?;
        let epochs = self.epochs(req);
        let cfg = self.config(req, epochs)?;

        let out = match self.kind {
            Kind::Pair => outcome_of_deployed(
                api::run_deployed(&cfg, None, |_| {})?,
                api::ServeStats::default(),
            ),
            Kind::ServeLive => {
                let queue = api::new_snapshots();
                let done = AtomicBool::new(false);
                let trainer_epoch = AtomicUsize::new(0);
                let (run, serve) = std::thread::scope(|scope| {
                    let client = scope.spawn(|| {
                        api::serve_closed_loop(
                            &queue,
                            req.seed.wrapping_add(4),
                            USERS,
                            TOP_K,
                            &done,
                            &trainer_epoch,
                        )
                    });
                    let run = api::run_deployed(&cfg, Some(&queue), |epoch| {
                        trainer_epoch.store(epoch, Ordering::Relaxed);
                    });
                    // Raised on failure too, so the client never outlives
                    // a trainer that published nothing.
                    done.store(true, Ordering::Release);
                    queue.close();
                    let serve = client
                        .join()
                        .map_err(|_| "serve client panicked".to_string());
                    (run, serve)
                });
                outcome_of_deployed(run?, serve??)
            }
            Kind::Fleet => {
                let run = api::run_fleet(&cfg, self.workers());
                let nodes = run.nodes.len();
                Outcome {
                    setup_s: run.setup_s,
                    epoch_done_s: run.epoch_done_s,
                    rmse: run.rmse,
                    nodes,
                    payload_bytes_out: (run.payload_bytes_out_per_node * nodes as f64).round()
                        as u64,
                    wire_bytes_out: 0,
                    write_syscalls: 0,
                    msgs_out: run.msgs_out,
                    msgs_in: run.msgs_in,
                    node_epochs_done: run.node_epochs,
                    serve: api::ServeStats::default(),
                    trained: run.nodes,
                }
            }
        };
        // The measured run's own set-up is one more cold sample.
        setup_samples_s.push(out.setup_s);
        setup_samples_s.append(&mut self.cold_setups(req, true)?);
        Ok(Run {
            out,
            setup_samples_s,
            steal_share: host::steal_share(jiffies_before, host::cpu_jiffies()),
            probe_ms: (probe_before, host::probe_ms()),
        })
    }
}

fn outcome_of_deployed(run: api::DeployedRun, serve: api::ServeStats) -> Outcome {
    let n = run.nodes.len();
    let epochs = run.nodes[0].rmse.len();
    // Fleet mean per epoch over the nodes that hold test ratings.
    let rmse = (0..epochs)
        .map(|e| {
            let seen: Vec<f64> = run
                .nodes
                .iter()
                .filter_map(|node| node.rmse.get(e).copied().filter(|r| r.is_finite()))
                .collect();
            stats::mean(&seen)
        })
        .collect();
    let node_epochs_done = run
        .nodes
        .iter()
        .map(|node| node.rmse.iter().filter(|r| r.is_finite()).count() as u64)
        .sum();
    let sum = |f: fn(&api::NodeRun) -> u64| run.nodes.iter().map(f).sum::<u64>();
    Outcome {
        setup_s: run.setup_s,
        epoch_done_s: run.nodes[0].epoch_done_s.clone(),
        rmse,
        nodes: n,
        payload_bytes_out: sum(|r| r.payload_bytes_out),
        wire_bytes_out: sum(|r| r.wire_bytes_out),
        write_syscalls: sum(|r| r.write_syscalls),
        msgs_out: sum(|r| r.msgs_out),
        msgs_in: sum(|r| r.msgs_in),
        node_epochs_done,
        serve,
        trained: run.nodes.into_iter().map(|r| r.node).collect(),
    }
}

/// The epoch times of a run after warm-up (the first 5 % of the budget
/// is left out), ms.
pub struct EpochTimes {
    /// 5th percentile: what an epoch costs when the host leaves it alone.
    /// The gated statistic, because it is the one that repeats: neighbours
    /// on the host only ever add time, for seconds or for minutes, and
    /// every statistic of the typical epoch moves with them (README).
    pub p05_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub mean_ms: f64,
    /// Epochs timed and epochs left out.
    pub timed: usize,
    pub warm: usize,
}

pub fn epoch_times(epochs: usize, epoch_done_s: &[f64]) -> EpochTimes {
    let warm = stats::warmup_len(epochs).min(epoch_done_s.len() - 2);
    let timed = &epoch_done_s[warm..];
    let gaps_ms: Vec<f64> = stats::deltas(timed).iter().map(|s| s * 1e3).collect();
    let mean_ms = stats::mean(&gaps_ms);
    let sorted = stats::sorted(gaps_ms);
    EpochTimes {
        p05_ms: stats::percentile(&sorted, 0.05),
        p50_ms: stats::median(&sorted),
        p95_ms: stats::percentile(&sorted, 0.95),
        mean_ms,
        timed: sorted.len(),
        warm,
    }
}

/// The end-to-end view of a [`Run`]: metrics, operation counts and
/// everything that makes the run incorrect.
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    /// Measured by every run, never bounded (README): the typical and the
    /// slow epoch, the crossing of the target as an epoch count and as wall
    /// time since epoch 0 could start, `serve-live`'s [`serving_metrics`].
    pub informational: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Human-readable sample counts, by metric name.
    pub notes: Vec<(&'static str, String)>,
    /// The run's exact outputs, in the order of [`Pins`]: what to pin when
    /// a sanctioned change moves them.
    pub exact: [(&'static str, u64); 4],
}

/// The serving metrics of `serve-live`: median and 99th-percentile latency
/// over every query, and queries over the time spent answering them (one
/// closed-loop client, so that is the throughput). Zero where the workload
/// serves nothing.
///
/// Informational, reported with the per-layer metrics: on this host the
/// tail of a 150 us query doubles for minutes at a time, so none of the
/// three can carry a bound (evidence in the README).
pub fn serving_metrics(serve: &api::ServeStats) -> [Metric; 3] {
    let (p50, p99, per_s) = if serve.latency_us.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let sorted = stats::sorted(serve.latency_us.clone());
        (
            stats::median(&sorted),
            stats::percentile(&sorted, 0.99),
            sorted.len() as f64 / sorted.iter().sum::<f64>() * 1e6,
        )
    };
    [
        ("query_p50_us", p50, "us"),
        ("query_p99_us", p99, "us"),
        ("queries_per_s", per_s, "1/s"),
    ]
    .map(|(name, value, unit)| Metric { name, value, unit })
}

/// Names, units and direction of the end-to-end metrics, in print order.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("epoch_p05_ms", "ms", "lower"),
    ("final_rmse", "rmse", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

pub fn end_to_end(w: &Workload, req: &Request, run: &Run) -> Result<EndToEnd, String> {
    let out = &run.out;
    let epochs = w.epochs(req);
    let mut problems = Vec::new();

    // Every node must have finished every epoch with a usable RMSE.
    let node_epochs = (out.nodes * epochs) as u64;
    let node_epochs_failed = node_epochs.saturating_sub(out.node_epochs_done);
    if out.epoch_done_s.len() != epochs || out.rmse.len() != epochs {
        problems.push(format!(
            "node 0 finished {} of {epochs} epochs",
            out.epoch_done_s.len().min(out.rmse.len())
        ));
    }
    if node_epochs_failed > 0 {
        problems.push(format!(
            "{node_epochs_failed} node-epochs ended without an RMSE"
        ));
    }
    let undelivered = out.msgs_out.saturating_sub(out.msgs_in);
    if undelivered > 0 {
        problems.push(format!(
            "{undelivered} of {} messages were not delivered",
            out.msgs_out
        ));
    }
    let queries = out.serve.latency_us.len() as u64;
    if out.serve.wrong > 0 {
        problems.push(format!(
            "{} of {queries} answers were short or differ from the oracle ({} re-checked)",
            out.serve.wrong, out.serve.checked
        ));
    }
    if out.epoch_done_s.len() < 2 || (w.is_serve_live() && queries == 0) {
        return Err(format!(
            "nothing to measure: {} epochs, {queries} queries",
            out.epoch_done_s.len()
        ));
    }

    let times = epoch_times(epochs, &out.epoch_done_s);

    let final_rmse = *out.rmse.last().expect("at least two epochs");
    if !final_rmse.is_finite() {
        problems.push("final RMSE is not finite".into());
    }
    let crossing = stats::target_epoch(&out.rmse, w.target_rmse);
    let exact = [
        ("final_rmse_bits", final_rmse.to_bits()),
        ("epochs_to_target", crossing.map_or(0, |e| e as u64 + 1)),
        ("payload_bytes_out", out.payload_bytes_out),
        ("write_syscalls", out.write_syscalls),
    ];
    if req.must_reach_target() && crossing.is_none() {
        problems.push(format!(
            "RMSE never reached the target {} (final {final_rmse})",
            w.target_rmse
        ));
    }
    if req.pinned() {
        let pinned = [
            w.pins.final_rmse_bits,
            w.pins.epochs_to_target,
            w.pins.payload_bytes_out,
            w.pins.write_syscalls,
        ];
        for ((what, got), pinned) in exact.into_iter().zip(pinned) {
            if got != pinned {
                problems.push(format!(
                    "{what}: {got:#x} differs from the pinned {pinned:#x}"
                ));
            }
        }
    }
    // A short run may end before the crossing; the whole run then stands
    // in.
    let reached = crossing
        .unwrap_or(epochs - 1)
        .min(out.epoch_done_s.len() - 1);

    let setups = stats::sorted(run.setup_samples_s.clone());
    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "setup_s" => stats::median(&setups),
            "epoch_p05_ms" => times.p05_ms,
            "final_rmse" => final_rmse,
            "peak_rss_mb" => host::peak_rss_mb()?,
            other => return Err(format!("no rule for end-to-end metric {other}")),
        })
    };
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit, _)| value(name).map(|value| Metric { name, value, unit }))
        .collect::<Result<Vec<_>, _>>()?;

    let notes = vec![
        (
            "setup_s",
            format!("median of {} cold set-ups", setups.len()),
        ),
        (
            "epoch_p05_ms",
            format!("of {} epochs after {} warm-up", times.timed, times.warm),
        ),
        (
            "epochs_to_target",
            format!("first epoch at or below the target RMSE {}", w.target_rmse),
        ),
        (
            "query_p99_us",
            format!(
                "{queries} queries, {} oracle-checked, snapshot backlog at most {}",
                out.serve.checked, out.serve.backlog_max
            ),
        ),
    ];
    let mut informational = vec![
        Metric {
            name: "epoch_ms",
            value: times.p50_ms,
            unit: "ms",
        },
        Metric {
            name: "epoch_p95_ms",
            value: times.p95_ms,
            unit: "ms",
        },
        Metric {
            name: "epochs_to_target",
            value: (reached + 1) as f64,
            unit: "count",
        },
        Metric {
            name: "time_to_target_s",
            value: out.epoch_done_s[reached],
            unit: "s",
        },
    ];
    if w.is_serve_live() {
        informational.extend(serving_metrics(&out.serve));
    }
    Ok(EndToEnd {
        metrics,
        informational,
        attempted: node_epochs + out.msgs_out + queries,
        failed: node_epochs_failed + undelivered + out.serve.wrong,
        problems,
        notes,
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(seconds: u64) -> Request {
        Request {
            seed: 1,
            seconds,
            smoke: false,
            short: false,
        }
    }

    #[test]
    fn epoch_budgets_scale_with_seconds_and_never_vanish() {
        let raw = find("rex-raw").unwrap();
        assert_eq!(raw.epochs(&req(22)), 3800);
        assert_eq!(raw.epochs(&req(11)), 1900);
        assert_eq!(raw.epochs(&req(1)), 173);
        let fleet = find("sim-fleet").unwrap();
        assert_eq!(fleet.epochs(&req(22)), 29);
        assert_eq!(fleet.epochs(&req(1)), 2);
        let traced = Request {
            short: true,
            ..req(22)
        };
        assert_eq!(fleet.epochs(&traced), 10);
    }

    #[test]
    fn epoch_times_leave_the_warm_up_out() {
        // 100 epochs: 4 ms each, the first five (warm-up) 40 ms, ten 9 ms.
        let mut t = 0.0;
        let done: Vec<f64> = (0..100)
            .map(|e| {
                t += match e {
                    0..=4 => 0.040,
                    50..=59 => 0.009,
                    _ => 0.004,
                };
                t
            })
            .collect();
        let times = epoch_times(100, &done);
        assert_eq!((times.timed, times.warm), (94, 5));
        assert!((times.p05_ms - 4.0).abs() < 1e-9 && (times.p50_ms - 4.0).abs() < 1e-9);
        assert!((times.p95_ms - 9.0).abs() < 1e-9, "{}", times.p95_ms);
        assert!((times.mean_ms - (84.0 * 4.0 + 10.0 * 9.0) / 94.0).abs() < 1e-9);
        // The shortest run there is: two epochs, one gap.
        let times = epoch_times(2, &[0.1, 0.35]);
        assert_eq!((times.timed, times.warm), (1, 0));
        assert!((times.p05_ms - 250.0).abs() < 1e-9);
    }

    /// A finished run of `w` with a falling curve that crosses the target
    /// halfway and exact outputs that are nobody's pins.
    fn synthetic_run(w: &Workload, req: &Request, crosses: bool) -> Run {
        let epochs = w.epochs(req);
        let drop = if crosses { 0.02 } else { 0.0 };
        Run {
            out: Outcome {
                setup_s: 0.04,
                epoch_done_s: (1..=epochs).map(|e| e as f64 * 0.005).collect(),
                rmse: (0..epochs)
                    .map(|e| w.target_rmse + 0.01 - drop * e as f64 / epochs as f64)
                    .collect(),
                nodes: w.nodes,
                payload_bytes_out: 1,
                wire_bytes_out: 2,
                write_syscalls: 3,
                msgs_out: 4,
                msgs_in: 4,
                node_epochs_done: (w.nodes * epochs) as u64,
                serve: api::ServeStats::default(),
                trained: Vec::new(),
            },
            setup_samples_s: vec![0.04],
            probe_ms: (50.0, 50.0),
            steal_share: 0.0,
        }
    }

    fn problems(seed: u64, seconds: u64, crosses: bool) -> Vec<String> {
        let raw = find("rex-raw").unwrap();
        let req = Request {
            seed,
            ..req(seconds)
        };
        end_to_end(raw, &req, &synthetic_run(raw, &req, crosses))
            .unwrap()
            .problems
    }

    #[test]
    fn pins_bind_the_pinned_seed_at_the_nominal_length_only() {
        assert_eq!(problems(PINNED_SEED, NOMINAL_SECONDS, true).len(), 4);
        // A lengthened run trains further: correct, though off the pins.
        assert!(problems(PINNED_SEED, 30, true).is_empty());
        assert!(problems(PINNED_SEED, 11, true).is_empty());
        assert!(problems(7, NOMINAL_SECONDS, true).is_empty());
    }

    #[test]
    fn the_target_binds_every_run_of_at_least_the_nominal_length() {
        for (seconds, expected) in [(11, 0), (NOMINAL_SECONDS, 1), (30, 1)] {
            let found = problems(7, seconds, false);
            assert_eq!(found.len(), expected, "{seconds} s: {found:?}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_schema() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }

    #[test]
    fn fleet_config_text_parses_to_the_fixed_shape() {
        let fleet = find("sim-fleet").unwrap();
        let text = fleet.toml(&req(22), 29).unwrap();
        assert!(text.contains("num_users = 610") && text.contains("topology = \"smallworld\""));
        assert_eq!(text.matches("127.0.0.1:").count(), 610);
        // Only the run's randomness follows the seed; the dataset does not.
        let other = fleet.toml(&Request { seed: 2, ..req(22) }, 29).unwrap();
        assert!(other.contains("data_seed = 42") && other.contains("protocol_seed = 4"));
    }
}
