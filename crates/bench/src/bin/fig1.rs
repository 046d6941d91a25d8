//! Fig 1 — One node per user, MF model: test-error evolution over
//! simulated time for the four panels (RMW/D-PSGD × SW/ER), REX vs MS vs
//! the centralized baseline.
//!
//! Quick mode: 128 nodes, 150 epochs. `--full`: the paper's 610 nodes.

use rex_bench::mf_experiments::{run_baseline, run_panel, MfScale, FOUR_PANELS};
use rex_bench::{output, BenchArgs};
use rex_core::config::ExecutionMode;

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.full {
        MfScale::one_user_full(&args)
    } else {
        MfScale::one_user_quick(&args)
    };
    println!(
        "Fig 1: one node per user — MF. {} nodes, {} epochs, k={}",
        scale.scenario.nodes, scale.epochs, scale.scenario.hp.k
    );

    let mut traces = Vec::new();
    for (label, algorithm, topology) in FOUR_PANELS {
        eprintln!("[fig1] panel {label}");
        let (rex, ms) = run_panel(&scale, label, algorithm, topology, ExecutionMode::Native);
        traces.push(rex);
        traces.push(ms);
    }
    eprintln!("[fig1] centralized baseline");
    traces.push(run_baseline(&scale));

    println!("\nSeries (test RMSE vs simulated time):");
    for t in &traces {
        output::print_trace_summary(t);
    }
    let refs: Vec<&_> = traces.iter().collect();
    output::save_traces("fig1", &refs);

    // Preview the Table II derivation from these runs.
    println!("\nTime-to-target preview (full table: `table2` bin):");
    for pair in traces.chunks(2).take(4) {
        if let [rex, ms] = pair {
            if let Some(row) = rex_sim::report::speedup_row(&ms.name[4..], rex, ms) {
                println!(
                    "  {:<12} target={:.3}  REX {:>8.1}s  MS {:>8.1}s  speedup {:.1}x",
                    row.setup, row.error_target, row.rex_secs, row.ms_secs, row.speedup
                );
            }
        }
    }
}
