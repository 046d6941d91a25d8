//! Fig 7 — SGX vs native beyond the EPC limit (capped MovieLens-25M
//! shape). Same panels as Fig 6; the EPC budget is overcommitted by the
//! MS arms, so paging amplifies their overhead (see EXPERIMENTS.md for the
//! budget-scaling substitution).

use rex_bench::sgx_experiments::{all_arms, mean_epoch_secs, run_arm, SgxScale};
use rex_bench::{output, BenchArgs};
use rex_sim::report::stage_breakdown_markdown;

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.full {
        SgxScale::fig7_full(&args)
    } else {
        SgxScale::fig7_quick(&args)
    };
    println!(
        "Fig 7: SGX vs native beyond EPC. {} users, {} ratings, EPC budget {}",
        scale.scenario.dataset.num_users,
        scale.scenario.dataset.num_ratings,
        output::human_bytes(scale.epc_limit_bytes as f64)
    );

    let mut results = Vec::new();
    for arm in all_arms() {
        eprintln!("[fig7] arm {}", arm.label());
        results.push((arm, run_arm(&scale, arm)));
    }

    println!("\n(a) Stage breakdown (mean per epoch):");
    let rows: Vec<(String, _)> = results
        .iter()
        .map(|(arm, r)| (arm.label(), r.trace.mean_stage_times()))
        .collect();
    println!("{}", stage_breakdown_markdown(&rows));

    println!("(b) RAM and network volume (MS arms should exceed the EPC):");
    for (arm, r) in &results {
        let ram = r.trace.peak_ram_bytes();
        let over = ram > scale.epc_limit_bytes as f64;
        println!(
            "  {:<22} RAM {:>10} {}  mean epoch {:>9.2} ms",
            arm.label(),
            output::human_bytes(ram),
            if over { "(beyond EPC)" } else { "            " },
            mean_epoch_secs(r) * 1e3,
        );
    }

    println!("\n(c)(d) Convergence:");
    for (_, r) in &results {
        output::print_trace_summary(&r.trace);
    }

    let traces: Vec<&_> = results.iter().map(|(_, r)| &r.trace).collect();
    output::save_traces("fig7", &traces);
}
