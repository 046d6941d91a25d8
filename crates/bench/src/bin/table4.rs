//! Table IV — SGX overhead in execution time vs native, with the memory
//! usage that explains it, for {RMW, D-PSGD} × {REX, MS} at both dataset
//! scales (paper: REX ≤ 17 %, MS 51–135 %).

use rex_bench::sgx_experiments::{overhead_row, run_arm_on, Arm, ArmBackend, SgxScale};
use rex_bench::{output, BenchArgs};
use rex_core::config::{GossipAlgorithm, SharingMode};
use rex_sim::report::overhead_table_markdown;

fn run_scale(scale: &SgxScale, tag: &str, backend: ArmBackend) -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    for algorithm in [GossipAlgorithm::Rmw, GossipAlgorithm::DPsgd] {
        for sharing in [SharingMode::RawData, SharingMode::Model] {
            let label = format!(
                "{}, {} ({tag})",
                algorithm.label(),
                match sharing {
                    SharingMode::RawData => "REX",
                    SharingMode::Model => "MS",
                }
            );
            eprintln!("[table4] {label}");
            let native = run_arm_on(
                scale,
                Arm {
                    algorithm,
                    sharing,
                    sgx: false,
                },
                backend,
            );
            let sgx = run_arm_on(
                scale,
                Arm {
                    algorithm,
                    sharing,
                    sgx: true,
                },
                backend,
            );
            rows.push(overhead_row(&label, &sgx, &native));
        }
    }
    rows
}

fn main() {
    let args = BenchArgs::parse();
    let (small, large) = if args.full {
        (SgxScale::fig6_full(&args), SgxScale::fig7_full(&args))
    } else {
        (SgxScale::fig6_quick(&args), SgxScale::fig7_quick(&args))
    };

    let backend = ArmBackend::from_args(&args);
    println!(
        "Table IV: SGX overhead vs native{}. Small scale: {}u; large: {}u (EPC {})\n",
        match backend {
            ArmBackend::Mem => "",
            ArmBackend::Tcp => ", over TCP loopback sockets",
        },
        small.scenario.dataset.num_users,
        large.scenario.dataset.num_users,
        output::human_bytes(large.epc_limit_bytes as f64)
    );

    let tag = |scale: &SgxScale| format!("{}u", scale.scenario.dataset.num_users);
    let mut rows = run_scale(&small, &tag(&small), backend);
    rows.extend(run_scale(&large, &tag(&large), backend));

    let md = overhead_table_markdown(&rows);
    println!("{md}");
    let _ = output::save("table4.md", &md).map(|p| println!("[saved] {}", p.display()));
    println!("(paper, 610u: REX 5-14 %, MS 51-70 %; 15000u: REX 8-17 %, MS 91-135 %)");
}
