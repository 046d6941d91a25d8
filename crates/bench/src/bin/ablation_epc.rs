//! Ablation: EPC budget sweep. Holds the workload fixed and shrinks the
//! usable EPC, charting how the SGX overhead of model sharing versus REX
//! responds — the mechanism behind Fig 7 / Table IV's beyond-EPC rows.

use rex_bench::sgx_experiments::{mean_epoch_secs, run_arm, Arm, SgxScale};
use rex_bench::{output, BenchArgs};
use rex_core::config::{GossipAlgorithm, SharingMode};
use rex_tee::SgxCostModel;

fn main() {
    let args = BenchArgs::parse();
    let base = SgxScale {
        epochs: args.epochs.unwrap_or(12),
        ..SgxScale::fig7_quick(&args)
    };

    println!(
        "EPC budget sweep ({} users, {} ratings, 8 nodes, D-PSGD)\n",
        base.scenario.dataset.num_users, base.scenario.dataset.num_ratings
    );

    // Native reference times.
    let native_rex = run_arm(
        &base,
        Arm {
            algorithm: GossipAlgorithm::DPsgd,
            sharing: SharingMode::RawData,
            sgx: false,
        },
    );
    let native_ms = run_arm(
        &base,
        Arm {
            algorithm: GossipAlgorithm::DPsgd,
            sharing: SharingMode::Model,
            sgx: false,
        },
    );
    let t_rex = mean_epoch_secs(&native_rex);
    let t_ms = mean_epoch_secs(&native_ms);

    println!(
        "{:>12} {:>16} {:>16}",
        "EPC budget", "REX overhead %", "MS overhead %"
    );
    let unlimited = SgxCostModel::default().epc_limit_bytes;
    for epc in [unlimited, 16 << 20, 8 << 20, 4 << 20, 2 << 20, 1 << 20] {
        let mut scale = base.clone();
        scale.epc_limit_bytes = epc;
        let sgx_rex = run_arm(
            &scale,
            Arm {
                algorithm: GossipAlgorithm::DPsgd,
                sharing: SharingMode::RawData,
                sgx: true,
            },
        );
        let sgx_ms = run_arm(
            &scale,
            Arm {
                algorithm: GossipAlgorithm::DPsgd,
                sharing: SharingMode::Model,
                sgx: true,
            },
        );
        let o_rex = (mean_epoch_secs(&sgx_rex) / t_rex - 1.0) * 100.0;
        let o_ms = (mean_epoch_secs(&sgx_ms) / t_ms - 1.0) * 100.0;
        println!(
            "{:>12} {:>15.1}% {:>15.1}%",
            output::human_bytes(epc as f64),
            o_rex,
            o_ms
        );
    }
    println!(
        "\nExpected shape: both flat while everything fits; MS (large\n\
         resident set: neighbour models + buffers) blows up first as the\n\
         budget shrinks; REX's small footprint keeps it cheap longest."
    );
}
