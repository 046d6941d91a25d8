//! The traced run: per-layer probes on inputs harvested from the
//! workload's own (shortened) run, and the layer replay with its span
//! summary. Crate names are the layers.

use crate::api::{self, Kit, ReplayFabric, ReplayPlan};
use crate::json::Metric;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Request, Run, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Names, units and direction of the per-layer metrics, in print order.
/// Every traced run reports all of them; a layer the workload does not
/// reach reads as its true zero there (no syscalls on the in-memory
/// fabric, no backlog without a publisher).
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    // set-up
    ("data.generate_ms", "ms", "lower"),
    ("data.partition_ms", "ms", "lower"),
    ("topology.build_ms", "ms", "lower"),
    ("node.build_fleet_ms", "ms", "lower"),
    ("node.config_parse_us", "us", "lower"),
    ("node.connect_ms", "ms", "lower"),
    ("tee.attest_edge_us", "us", "lower"),
    // rex-ml
    ("ml.sgd_step_ns", "ns", "lower"),
    ("ml.rmse_eval_us", "us", "lower"),
    ("ml.merge_us", "us", "lower"),
    ("ml.to_bytes_us", "us", "lower"),
    ("ml.from_bytes_us", "us", "lower"),
    ("ml.dot_ns", "ns", "lower"),
    ("ml.model_clone_us", "us", "lower"),
    // rex-core
    ("core.node_epoch_us", "us", "lower"),
    ("core.stage_share.merge", "share", "lower"),
    ("core.stage_share.train", "share", "lower"),
    ("core.stage_share.share", "share", "lower"),
    ("core.stage_share.test", "share", "lower"),
    ("core.unattributed_share", "share", "lower"),
    ("core.commitment_us", "us", "lower"),
    ("core.store_append_us", "us", "lower"),
    ("core.store_sample_us", "us", "lower"),
    ("core.engine_overhead_share", "share", "lower"),
    ("core.serve_topk_us", "us", "lower"),
    ("core.serve_adopt_us", "us", "lower"),
    ("core.snapshot_publish_us", "us", "lower"),
    ("core.snapshot_backlog_max", "count", "lower"),
    ("core.snapshot_age_epochs_max", "count", "lower"),
    // rex-net
    ("net.tcp_barrier_us", "us", "lower"),
    ("net.tcp_roundtrip_us.256", "us", "lower"),
    ("net.tcp_bulk_mb_s.1m", "MB/s", "higher"),
    ("net.frame_encode_us.model", "us", "lower"),
    ("net.frame_assemble_us.model", "us", "lower"),
    ("net.encode_plain_us.model", "us", "lower"),
    ("net.decode_plain_us.model", "us", "lower"),
    ("net.encode_plain_us.raw", "us", "lower"),
    ("net.decode_plain_us.raw", "us", "lower"),
    ("net.mem_roundtrip_ns", "ns", "lower"),
    ("net.wire_bytes_per_node_epoch", "bytes", "lower"),
    ("net.write_syscalls_per_epoch", "count", "lower"),
    ("net.wire_overhead_bytes_per_epoch", "bytes", "lower"),
    // rex-crypto / rex-tee
    ("crypto.aead_mb_s", "MB/s", "higher"),
    ("crypto.sha256_mb_s", "MB/s", "higher"),
    ("tee.seal_us.model", "us", "lower"),
    ("tee.open_us.model", "us", "lower"),
    ("tee.seal_us.raw", "us", "lower"),
    ("tee.open_us.raw", "us", "lower"),
    // layer replay
    ("trace.replay_epoch_ms", "ms", "lower"),
    ("trace.coverage_share", "share", "higher"),
    ("trace.self_share.epoch", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
    // informational, never gated
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("epoch_ms", "ms", "lower"),
    ("epoch_p95_ms", "ms", "lower"),
    ("host.probe_ms", "ms", "lower"),
    ("host.steal_share", "share", "lower"),
];

/// Median time of one call, ns. Calls run in batches of `batch` (one
/// clock reading per batch) until `budget` is spent, five batches at
/// least, after one unmeasured warm-up call.
fn per_call_ns(budget: Duration, batch: usize, mut op: impl FnMut()) -> f64 {
    op();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || (started.elapsed() < budget && samples.len() < 200_000) {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&stats::sorted(samples))
}

const BUDGET: Duration = Duration::from_millis(120);

fn us(budget: Duration, op: impl FnMut()) -> f64 {
    per_call_ns(budget, 1, op) / 1e3
}

/// Everything the traced run adds to the workload's own (short) run.
pub fn per_layer(
    w: &Workload,
    req: &Request,
    run: &mut Run,
    trace_file: Option<&Path>,
) -> Result<Vec<Metric>, String> {
    let out = &mut run.out;
    let epochs = w.epochs(req);
    let cfg_text = w.toml(req, epochs)?;
    let cfg = api::parse_config(&cfg_text)?;
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // --- set-up layers ------------------------------------------------
    let setup = api::time_setup_layers(&cfg);
    m.push(("data.generate_ms", setup.generate_ms));
    m.push(("data.partition_ms", setup.partition_ms));
    m.push(("topology.build_ms", setup.topology_ms));
    m.push(("node.build_fleet_ms", setup.build_fleet_ms));
    m.push((
        "node.config_parse_us",
        us(BUDGET, || {
            std::hint::black_box(api::parse_config(&cfg_text).is_ok());
        }),
    ));
    let connects = (0..9)
        .map(|_| api::time_connect_ms())
        .collect::<Result<Vec<_>, _>>()?;
    m.push(("node.connect_ms", stats::median(&stats::sorted(connects))));
    let tiny = api::parse_config(
        "nodes = [\"127.0.0.1:1\", \"127.0.0.1:2\"]\nnum_users = 24\nnum_items = 160\n\
         num_ratings = 2000\nsgx = true\n",
    )?;
    let attests: Vec<f64> = (0..9).map(|_| api::time_attest_edge_us(&tiny)).collect();
    m.push(("tee.attest_edge_us", stats::median(&stats::sorted(attests))));

    // --- probes on harvested inputs ----------------------------------
    let peer = if out.trained.len() > 1 { 1 } else { 0 };
    let mut kit = Kit::new(&out.trained[0], &out.trained[peer], w.points, req.seed)?;
    let model_mb = kit.model_len() as f64 / 1e6;

    m.push((
        "ml.sgd_step_ns",
        per_call_ns(BUDGET, 1, || kit.sgd_steps(1_000)) / 1e3,
    ));
    m.push(("ml.rmse_eval_us", us(BUDGET, || kit.rmse_eval())));
    m.push(("ml.merge_us", us(BUDGET, || kit.merge())));
    m.push(("ml.to_bytes_us", us(BUDGET, || kit.to_bytes())));
    m.push(("ml.from_bytes_us", us(BUDGET, || kit.model_from_bytes())));
    m.push((
        "ml.dot_ns",
        per_call_ns(BUDGET, 1, || kit.dots(10_000)) / 1e4,
    ));
    m.push(("ml.model_clone_us", us(BUDGET, || kit.model_clone())));

    m.push(("core.commitment_us", us(BUDGET, || kit.commitment())));
    let append = us(BUDGET, || kit.store_append());
    let sample_only = us(BUDGET, || kit.store_append_baseline());
    m.push(("core.store_append_us", (append - sample_only).max(0.0)));
    m.push(("core.store_sample_us", us(BUDGET, || kit.store_sample())));
    m.push(("core.serve_topk_us", us(BUDGET, || kit.serve_topk_warm())));
    m.push(("core.serve_adopt_us", us(BUDGET, || kit.serve_topk_adopt())));
    m.push((
        "core.snapshot_publish_us",
        us(BUDGET, || kit.snapshot_publish()),
    ));

    m.push(("net.tcp_barrier_us", us(BUDGET, || kit.tcp_barrier())));
    m.push((
        "net.tcp_roundtrip_us.256",
        us(BUDGET, || kit.tcp_roundtrip(256)),
    ));
    let bulk_us = us(BUDGET * 2, || kit.tcp_bulk(1 << 20));
    m.push(("net.tcp_bulk_mb_s.1m", (1u64 << 20) as f64 / bulk_us));
    m.push((
        "net.frame_encode_us.model",
        us(BUDGET, || kit.frame_encode_model()),
    ));
    m.push((
        "net.frame_assemble_us.model",
        us(BUDGET, || kit.frame_assemble_model()),
    ));
    m.push((
        "net.encode_plain_us.model",
        us(BUDGET, || kit.encode_plain_model()),
    ));
    m.push((
        "net.decode_plain_us.model",
        us(BUDGET, || kit.decode_plain_model()),
    ));
    m.push((
        "net.encode_plain_us.raw",
        us(BUDGET, || kit.encode_plain_raw()),
    ));
    m.push((
        "net.decode_plain_us.raw",
        us(BUDGET, || kit.decode_plain_raw()),
    ));
    m.push((
        "net.mem_roundtrip_ns",
        per_call_ns(BUDGET, 100, || kit.mem_roundtrip()),
    ));

    m.push((
        "crypto.aead_mb_s",
        model_mb * 1e6 / us(BUDGET, || kit.aead_seal_1m()),
    ));
    m.push((
        "crypto.sha256_mb_s",
        model_mb * 1e6 / us(BUDGET, || kit.sha256_model()),
    ));
    for (model_sized, seal_name, open_name) in [
        (true, "tee.seal_us.model", "tee.open_us.model"),
        (false, "tee.seal_us.raw", "tee.open_us.raw"),
    ] {
        let (mut seals, mut opens) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while seals.len() < 5 || started.elapsed() < BUDGET {
            let (seal_ns, open_ns) = kit.seal_open(model_sized);
            seals.push(seal_ns as f64 / 1e3);
            opens.push(open_ns as f64 / 1e3);
        }
        m.push((seal_name, stats::median(&stats::sorted(seals))));
        m.push((open_name, stats::median(&stats::sorted(opens))));
    }
    drop(kit);

    // --- from the workload's own run ----------------------------------
    let epochs_run = out.epoch_done_s.len().max(1) as f64;
    let nodes = out.nodes as f64;
    let epoch_times = workloads::epoch_times(epochs, &out.epoch_done_s);
    m.extend(workloads::serving_metrics(&out.serve).map(|q| (q.name, q.value)));
    m.push(("epoch_ms", epoch_times.p50_ms));
    m.push(("epoch_p95_ms", epoch_times.p95_ms));
    m.push(("host.probe_ms", (run.probe_ms.0 + run.probe_ms.1) / 2.0));
    m.push(("host.steal_share", run.steal_share));
    m.push((
        "net.wire_bytes_per_node_epoch",
        out.payload_bytes_out as f64 / nodes / epochs_run,
    ));
    m.push((
        "net.write_syscalls_per_epoch",
        out.write_syscalls as f64 / nodes / epochs_run,
    ));
    m.push((
        "net.wire_overhead_bytes_per_epoch",
        out.wire_bytes_out.saturating_sub(out.payload_bytes_out) as f64 / nodes / epochs_run,
    ));
    m.push(("core.snapshot_backlog_max", out.serve.backlog_max as f64));
    m.push((
        "core.snapshot_age_epochs_max",
        out.serve.age_epochs_max as f64,
    ));

    // --- whole Node::epoch calls on the nodes the run left behind ------
    // A sample of the fleet is enough: the call is per node.
    let sample = out.trained.len().min(16);
    let rounds = if w.is_serve_live() { 20 } else { 12 };
    let times = api::time_node_epochs(&mut out.trained[..sample], rounds);
    m.push(("core.node_epoch_us", times.call_us));
    for (name, share) in [
        "core.stage_share.merge",
        "core.stage_share.train",
        "core.stage_share.share",
        "core.stage_share.test",
    ]
    .into_iter()
    .zip(times.stage_share)
    {
        m.push((name, share));
    }
    m.push(("core.unattributed_share", times.unattributed_share));
    // Share of worker-thread time spent outside Node::epoch: engine rounds
    // and the pool for the fleet, barriers and wake-ups for the pair,
    // snapshot publication for the live trainer.
    let busy = nodes * times.call_us / (w.workers() as f64 * epoch_times.mean_ms * 1e3);
    m.push(("core.engine_overhead_share", (1.0 - busy).max(0.0)));

    // --- layer replay: traced, then untraced for the overhead ----------
    let plan = ReplayPlan {
        fabric: if w.is_fleet() {
            ReplayFabric::Mem
        } else {
            ReplayFabric::Tcp
        },
        epochs: replay_epochs(times.call_us * sample as f64, req),
        sealed: w.is_sealed(),
        queries_per_epoch: if w.is_serve_live() { 8 } else { 0 },
    };
    let replicas = &out.trained[..sample];
    let mut tracer = Tracer::on();
    let traced = api::replay(&cfg, replicas, &plan, &mut tracer)?;
    let untraced = api::replay(&cfg, replicas, &plan, &mut Tracer::off())?;
    if traced.rmse.to_bits() != untraced.rmse.to_bits() {
        return Err(format!(
            "replay is not deterministic: traced RMSE {}, untraced {}",
            traced.rmse, untraced.rmse
        ));
    }
    let untraced_epoch_ms = untraced.epochs_s * 1e3 / plan.epochs as f64;
    let summary = trace::summarise(tracer.spans());
    m.push(("trace.replay_epoch_ms", summary.epoch_ms));
    m.push(("trace.coverage_share", summary.coverage));
    m.push(("trace.self_share.epoch", 1.0 - summary.coverage));
    m.push((
        "trace.overhead_share",
        traced.epochs_s / untraced.epochs_s - 1.0,
    ));
    eprintln!(
        "replay: {} epochs x {sample} replicas, epoch span {:.3} ms traced vs {:.3} ms untraced, \
         children cover {:.1}%",
        summary.epochs,
        summary.epoch_ms,
        untraced_epoch_ms,
        summary.coverage * 100.0
    );
    for (name, (calls, share)) in &summary.children {
        eprintln!(
            "  {name:<24} {calls:>8} calls {:>6.2}% of the epoch span",
            share * 100.0
        );
    }
    if let Some(path) = trace_file {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // Emit in the declared order; a name without a value is a bug here.
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            m.iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, value)| Metric { name, value, unit })
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

/// Epochs that fill about a fifth of the requested seconds per replay,
/// from the measured cost of one round of `Node::epoch` calls.
fn replay_epochs(round_us: f64, req: &Request) -> usize {
    let budget_us = if req.smoke {
        2e5
    } else {
        req.seconds as f64 * 1e6 / 5.0
    };
    ((budget_us / round_us.max(1.0)) as usize).clamp(3, 5_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::END_TO_END;

    #[test]
    fn per_call_ns_is_a_median_of_batches() {
        let mut calls = 0u64;
        let ns = per_call_ns(Duration::from_millis(1), 10, || calls += 1);
        assert!(ns >= 0.0);
        assert!(calls >= 51, "warm-up plus five batches of ten, got {calls}");
    }

    #[test]
    fn metric_names_fit_the_schema_and_are_used_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(name, _, _)| name)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!all[..i].contains(name), "{name} twice");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` must declare exactly what the binary prints.
    #[test]
    fn benchmark_json_declares_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in &crate::workloads::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why)));
        }
        assert_eq!(
            text.matches("\"why\"").count(),
            crate::workloads::WORKLOADS.len()
        );
        let seconds = format!("\"run_seconds\": {}", crate::workloads::NOMINAL_SECONDS);
        assert!(text.contains(&seconds), "BENCHMARK.json lacks {seconds}");
    }
}
