//! `rex-node` — run one REX engine node as its own OS process.
//!
//! ```text
//! rex-node --config cluster.toml --id 3 [--join] [--out node3.summary] [--epochs N] [--quiet]
//!          [--trace-out node3.jsonl]
//! ```
//!
//! Every process of a cluster reads the same config file (see
//! [`rex_node::ClusterConfig`] for the format) and is told which node id
//! it is. The process rebuilds the fleet deterministically, connects to
//! its peers over TCP, runs the epoch loop, prints per-epoch progress to
//! stderr, and writes a machine-readable summary to `--out`. With
//! `--trace-out` it also writes one JSON line per epoch it executes (stage
//! times, commit time, link rows, traffic, RMSE bits and commitment
//! digest; see `rex_core::trace_out`).
//!
//! `--join` asserts that the config's `[membership]` section schedules
//! this node as an **online joiner**: the process dials the running
//! cluster and blocks until the shared schedule admits it at its join
//! epoch. (The join path is selected by the schedule either way; the
//! flag catches the operator error of pointing it at a founding id.)
//!
//! `--challenge <node-id>` switches the binary into **challenger mode**:
//! instead of joining the cluster it replays the whole run in process
//! from the config's seeds, audits the suspect's recorded summary
//! (`--summary <path>`) against the replayed commitment chain, and — on
//! divergence — demonstrates the eviction by re-running the fleet with
//! the suspect scheduled out. Exit status: 0 when the recorded chain is
//! honest, 1 when it diverges.

use rex_core::trace_out::TraceOut;
use rex_node::{challenge_node, run_node, ChallengeVerdict, ClusterConfig, NodeSummary};
use std::path::PathBuf;

struct Args {
    config: PathBuf,
    id: Option<usize>,
    join: bool,
    out: Option<PathBuf>,
    epochs: Option<usize>,
    quiet: bool,
    challenge: Option<usize>,
    summary: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: rex-node --config <cluster.toml> --id <node-id> [--join] [--out <path>] [--epochs N] [--quiet]\n\
         \x20                [--trace-out <path.jsonl>]\n\
         \x20      rex-node --config <cluster.toml> --challenge <node-id> --summary <recorded.summary>"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_args() -> Args {
    let mut config = None;
    let mut id = None;
    let mut join = false;
    let mut out = None;
    let mut epochs = None;
    let mut quiet = false;
    let mut challenge = None;
    let mut summary = None;
    let mut trace_out = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--config" => config = iter.next().map(PathBuf::from),
            "--id" => {
                id = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--id needs a number")),
                );
            }
            "--join" => join = true,
            "--out" => out = iter.next().map(PathBuf::from),
            "--epochs" => {
                epochs = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--epochs needs a number")),
                );
            }
            "--quiet" => quiet = true,
            "--challenge" => {
                challenge = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--challenge needs a node id")),
                );
            }
            "--summary" => summary = iter.next().map(PathBuf::from),
            "--trace-out" => {
                trace_out = Some(
                    iter.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                );
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if challenge.is_none() && id.is_none() {
        usage("--id is required");
    }
    Args {
        config: config.unwrap_or_else(|| usage("--config is required")),
        id,
        join,
        out,
        epochs,
        quiet,
        challenge,
        summary,
        trace_out,
    }
}

/// Challenger mode: audit a recorded summary against a full replay.
fn run_challenge(cfg: &ClusterConfig, suspect: usize, summary_path: &PathBuf) -> ! {
    let text = std::fs::read_to_string(summary_path).unwrap_or_else(|e| {
        usage(&format!("reading {}: {e}", summary_path.display()));
    });
    let recorded = NodeSummary::parse(&text).unwrap_or_else(|e| {
        usage(&format!("parsing {}: {e}", summary_path.display()));
    });
    eprintln!(
        "[rex-node] challenging node {suspect}: replaying {} epochs over {} nodes",
        cfg.epochs,
        cfg.num_nodes()
    );
    match challenge_node(cfg, suspect, &recorded) {
        Ok(ChallengeVerdict::Honest {
            epochs_checked,
            epochs_committed,
        }) => {
            println!(
                "verdict = honest\nepochs_checked = {epochs_checked}\nepochs_committed = {epochs_committed}"
            );
            std::process::exit(0);
        }
        Ok(ChallengeVerdict::Divergent {
            epoch,
            reason,
            eviction_epoch,
            post_eviction,
        }) => {
            println!(
                "verdict = divergent\ndivergent_epoch = {epoch}\nreason = {reason}\neviction_epoch = {eviction_epoch}"
            );
            let survivors = post_eviction
                .iter()
                .filter(|s| s.id != suspect && s.final_rmse_bits.is_some())
                .count();
            println!("post_eviction_survivors = {survivors}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("[rex-node] challenge failed: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = parse_args();
    let text = std::fs::read_to_string(&args.config).unwrap_or_else(|e| {
        usage(&format!("reading {}: {e}", args.config.display()));
    });
    let mut cfg = ClusterConfig::parse(&text).unwrap_or_else(|e| {
        usage(&format!("parsing {}: {e}", args.config.display()));
    });
    if let Some(epochs) = args.epochs {
        cfg.epochs = epochs;
    }

    if let Some(suspect) = args.challenge {
        let summary = args
            .summary
            .unwrap_or_else(|| usage("--challenge needs --summary <recorded.summary>"));
        run_challenge(&cfg, suspect, &summary);
    }
    let Some(id) = args.id else {
        usage("--id is required");
    };
    let join_epoch = cfg.membership.as_ref().and_then(|p| p.join_epoch(id));
    if args.join && join_epoch.is_none() {
        usage(&format!(
            "--join given, but the [membership] schedule does not make node {id} a joiner"
        ));
    }
    if !args.quiet {
        if let Some(k) = join_epoch {
            eprintln!("[rex-node {id}] online joiner: dialing the cluster, admission at epoch {k}");
        }
    }
    if !args.quiet {
        eprintln!(
            "[rex-node {id}] cluster of {}, {} epochs, {} over {:?}{}",
            cfg.num_nodes(),
            cfg.epochs,
            cfg.protocol().label(),
            cfg.topology.label(),
            if cfg.sgx { ", SGX" } else { "" },
        );
    }
    let trace = args.trace_out.as_deref().map(|path| {
        TraceOut::create(path).unwrap_or_else(|e| {
            eprintln!("[rex-node {id}] creating {}: {e}", path.display());
            std::process::exit(1);
        })
    });
    let quiet = args.quiet;
    let summary = run_node(&cfg, id, trace.as_ref(), |epoch, rmse| {
        if !quiet {
            match rmse {
                Some(r) => eprintln!("[rex-node {id}] epoch {epoch}: rmse {r:.4}"),
                None => eprintln!("[rex-node {id}] epoch {epoch}: no test ratings"),
            }
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("[rex-node {id}] fatal: {e}");
        std::process::exit(1);
    });

    println!("{}", summary.to_text());
    if let Some(out) = args.out {
        if let Err(e) = std::fs::write(&out, summary.to_text()) {
            eprintln!("[rex-node {id}] writing {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}
