//! Fig 2 — One node per user, MF model: network volume (row 1, log-scale
//! bytes in+out per node) and test error (row 2) as functions of *epochs*,
//! for the four panels. Same runs as Fig 1; different projection.

use rex_bench::mf_experiments::{run_baseline, run_panel, MfScale, FOUR_PANELS};
use rex_bench::{output, BenchArgs};
use rex_core::config::ExecutionMode;

fn main() {
    let args = BenchArgs::parse();
    let mut scale = if args.full {
        MfScale::one_user_full(&args)
    } else {
        MfScale::one_user_quick(&args)
    };
    // The paper plots Fig 2 over the first 100 epochs.
    scale.epochs = args.epochs.unwrap_or(scale.epochs.min(100));
    println!(
        "Fig 2: data volume + RMSE vs epochs. {} nodes, {} epochs",
        scale.scenario.nodes, scale.epochs
    );

    let mut traces = Vec::new();
    for (label, algorithm, topology) in FOUR_PANELS {
        eprintln!("[fig2] panel {label}");
        let (rex, ms) = run_panel(&scale, label, algorithm, topology, ExecutionMode::Native);
        traces.push(rex);
        traces.push(ms);
    }
    traces.push(run_baseline(&scale));

    println!("\nPer-epoch network volume (mean per node):");
    for pair in traces.chunks(2).take(4) {
        if let [rex, ms] = pair {
            let rex_epoch = rex.total_bytes_per_node() / rex.records.len() as f64;
            let ms_epoch = ms.total_bytes_per_node() / ms.records.len() as f64;
            println!(
                "  {:<14} REX {:>12}/epoch   MS {:>12}/epoch   ratio {:>6.0}x",
                &ms.name[4..],
                output::human_bytes(rex_epoch),
                output::human_bytes(ms_epoch),
                ms_epoch / rex_epoch
            );
        }
    }
    println!("\nFinal RMSE per series:");
    for t in &traces {
        output::print_trace_summary(t);
    }
    let refs: Vec<&_> = traces.iter().collect();
    output::save_traces("fig2", &refs);
}
