//! Fig 6 — SGX vs native, 8 fully connected nodes, MF, low memory usage:
//! (a) per-stage breakdown, (b) RAM + network per epoch,
//! (c)/(d) convergence for native/SGX arms.

use rex_bench::sgx_experiments::{all_arms, mean_epoch_secs, run_arm, SgxScale};
use rex_bench::{output, BenchArgs};
use rex_sim::report::stage_breakdown_markdown;

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.full {
        SgxScale::fig6_full(&args)
    } else {
        SgxScale::fig6_quick(&args)
    };
    println!(
        "Fig 6: SGX vs native (low memory). {} users, {} ratings, 8 nodes, {} epochs",
        scale.scenario.dataset.num_users, scale.scenario.dataset.num_ratings, scale.epochs
    );

    let mut results = Vec::new();
    for arm in all_arms() {
        eprintln!("[fig6] arm {}", arm.label());
        results.push((arm, run_arm(&scale, arm)));
    }

    println!("\n(a) Stage breakdown (mean per epoch):");
    let rows: Vec<(String, _)> = results
        .iter()
        .map(|(arm, r)| (arm.label(), r.trace.mean_stage_times()))
        .collect();
    println!("{}", stage_breakdown_markdown(&rows));

    println!("(b) RAM and network volume:");
    for (arm, r) in &results {
        let per_epoch = r.trace.total_bytes_per_node() / r.trace.records.len() as f64;
        println!(
            "  {:<22} RAM {:>10}   {:>12}/epoch   mean epoch {:>8.2} ms",
            arm.label(),
            output::human_bytes(r.trace.peak_ram_bytes()),
            output::human_bytes(per_epoch),
            mean_epoch_secs(r) * 1e3,
        );
    }

    println!("\n(c)(d) Convergence:");
    for (_, r) in &results {
        output::print_trace_summary(&r.trace);
    }

    let traces: Vec<&_> = results.iter().map(|(_, r)| &r.trace).collect();
    output::save_traces("fig6", &traces);
}
