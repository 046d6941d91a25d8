//! Table III — Multiple users per node: REX speed-up over MS at the MS
//! run's final error (paper: 3.3x / 2.4x / 7.5x / 2.8x).

use rex_bench::mf_experiments::{run_panel, MfScale, FOUR_PANELS};
use rex_bench::{output, BenchArgs};
use rex_core::config::ExecutionMode;
use rex_sim::report::{speedup_row, speedup_table_markdown};

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.full {
        MfScale::multi_user_full(&args)
    } else {
        MfScale::multi_user_quick(&args)
    };
    println!(
        "Table III: multiple users per node ({} users on {} nodes, {} epochs)\n",
        scale.scenario.dataset.num_users, scale.scenario.nodes, scale.epochs
    );

    let mut panels = Vec::new();
    for (label, algorithm, topology) in FOUR_PANELS {
        eprintln!("[table3] panel {label}");
        panels.push((
            label,
            run_panel(&scale, label, algorithm, topology, ExecutionMode::Native),
        ));
    }
    let mut rows = Vec::new();
    for idx in [3usize, 1, 2, 0] {
        let (label, (rex, ms)) = &panels[idx];
        match speedup_row(label, rex, ms) {
            Some(row) => rows.push(row),
            None => eprintln!("[table3] {label}: target unreached in epoch budget"),
        }
    }
    let md = speedup_table_markdown(&rows, "s");
    println!("{md}");
    let _ = output::save("table3.md", &md).map(|p| println!("[saved] {}", p.display()));
    println!("(paper, full scale: 3.3x / 2.4x / 7.5x / 2.8x in the same row order)");
}
