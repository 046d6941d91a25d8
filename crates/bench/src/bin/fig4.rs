//! Fig 4 — Multiple users per node, MF model: test error vs simulated time
//! for the four panels. Same structure as Fig 1 with users partitioned
//! over fewer server-style nodes (§IV-B-b).

use rex_bench::mf_experiments::{run_baseline, run_panel, MfScale, FOUR_PANELS};
use rex_bench::{output, BenchArgs};
use rex_core::config::ExecutionMode;

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.full {
        MfScale::multi_user_full(&args)
    } else {
        MfScale::multi_user_quick(&args)
    };
    println!(
        "Fig 4: multiple users per node — MF. {} users on {} nodes, {} epochs",
        scale.scenario.dataset.num_users, scale.scenario.nodes, scale.epochs
    );

    let mut traces = Vec::new();
    for (label, algorithm, topology) in FOUR_PANELS {
        eprintln!("[fig4] panel {label}");
        let (rex, ms) = run_panel(&scale, label, algorithm, topology, ExecutionMode::Native);
        traces.push(rex);
        traces.push(ms);
    }
    traces.push(run_baseline(&scale));

    println!("\nSeries (test RMSE vs simulated time):");
    for t in &traces {
        output::print_trace_summary(t);
    }
    let refs: Vec<&_> = traces.iter().collect();
    output::save_traces("fig4", &refs);
}
