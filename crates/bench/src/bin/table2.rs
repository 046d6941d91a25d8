//! Table II — One node per user: REX speed-up over MS at the MS run's
//! final error, for the four (algorithm, topology) setups.

use rex_bench::mf_experiments::{run_panel, MfScale, FOUR_PANELS};
use rex_bench::{output, BenchArgs};
use rex_core::config::ExecutionMode;
use rex_sim::report::{speedup_row, speedup_table_markdown};

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.full {
        MfScale::one_user_full(&args)
    } else {
        MfScale::one_user_quick(&args)
    };
    println!(
        "Table II: one node per user ({} nodes, {} epochs)\n",
        scale.scenario.nodes, scale.epochs
    );

    let mut rows = Vec::new();
    // Paper row order: D-PSGD ER, RMW ER, D-PSGD SW, RMW SW.
    let order = [3usize, 1, 2, 0];
    let mut panels = Vec::new();
    for (label, algorithm, topology) in FOUR_PANELS {
        eprintln!("[table2] panel {label}");
        panels.push((
            label,
            run_panel(&scale, label, algorithm, topology, ExecutionMode::Native),
        ));
    }
    for idx in order {
        let (label, (rex, ms)) = &panels[idx];
        match speedup_row(label, rex, ms) {
            Some(row) => rows.push(row),
            None => eprintln!(
                "[table2] {label}: REX did not reach the MS target within the epoch budget"
            ),
        }
    }
    let md = speedup_table_markdown(&rows, "s");
    println!("{md}");
    let _ = output::save("table2.md", &md).map(|p| println!("[saved] {}", p.display()));
    println!("(paper, full scale: 18.3x / 11.5x / 7.5x / 2.3x in the same row order)");
}
