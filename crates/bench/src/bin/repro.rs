//! `repro <experiment>… [flags]` regenerates the paper's §IV figures,
//! tables and ablations (`all`, or any of `EXPERIMENTS`) under
//! `results/`. The flags are [`BenchArgs`]': `--full` for the paper's
//! scale, `--epochs`, `--nodes` and `--seed` overrides, and `--tcp` to run
//! the 8-node SGX arms over loopback sockets.
//!
//! One invocation makes each family of runs once, for the longest epoch
//! budget that a requested experiment reads: the one-user panels feed
//! Figs 1-2 and Table II, the multi-user panels Fig 4 and Table III, and
//! the SGX arms of one scale Fig 6 or 7 and that half of Table IV.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rex_bench::args::exit_with_usage;
use rex_bench::dnn_experiments::{run_fig5, DnnScale};
use rex_bench::mf_experiments::{build_fleet, run_baseline, run_panel, MfScale, FOUR_PANELS};
use rex_bench::output::{self, human_bytes, print_trace_summary, save_traces};
use rex_bench::sgx_experiments::{
    all_arms, mean_epoch_secs, overhead_row, run_arm, run_arm_on, Arm, ArmBackend, SgxScale,
};
use rex_bench::BenchArgs;
use rex_core::config::{ExecutionMode, GossipAlgorithm, SharingMode};
use rex_core::engine::{Engine, EngineConfig, EngineResult};
use rex_core::store::RawDataStore;
use rex_data::SyntheticConfig;
use rex_net::mem::MemNetwork;
use rex_sim::report::{
    overhead_table_markdown, speedup_row, speedup_table_markdown, stage_breakdown_markdown,
};
use rex_sim::trace::ExperimentTrace;
use rex_tee::SgxCostModel;
use rex_topology::{TopologySpec, SMALL_WORLD_K};
use std::cell::OnceCell;

type Experiment = (&'static str, fn(&Runs));

/// Every experiment, in the order one invocation runs them.
const EXPERIMENTS: [Experiment; 13] = [
    ("fig1", |r| panels_figure("fig1", r.panels(ONE_USER))),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", |r| panels_figure("fig4", r.panels(MULTI_USER))),
    ("fig5", fig5),
    ("fig6", |r| sgx_figure("fig6", r.sgx(false))),
    ("fig7", |r| sgx_figure("fig7", r.sgx(true))),
    ("table2", |r| speedup_table("table2", r.panels(ONE_USER))),
    ("table3", |r| speedup_table("table3", r.panels(MULTI_USER))),
    ("table4", table4),
    ("ablation_duplicates", ablation_duplicates),
    ("ablation_epc", ablation_epc),
    ("ablation_share_size", ablation_share_size),
];

/// The paper plots Fig 2 over the first 100 epochs.
const FIG2_EPOCHS: usize = 100;

fn main() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let synopsis = format!("repro <all | {}>...", names.join(" | "));
    let usage = |err: &str| -> ! { exit_with_usage(&synopsis, err) };

    // Every argument is checked before the first run starts.
    let mut argv = std::env::args().skip(1).peekable();
    let mut named = Vec::new();
    while let Some(name) = argv.next_if(|arg| !arg.starts_with('-')) {
        if name != "all" && !names.contains(&name.as_str()) {
            usage(&format!("unknown experiment {name}"));
        }
        named.push(name);
    }
    let args = BenchArgs::try_from_args(argv).unwrap_or_else(|err| usage(&err));
    // Every experiment that reads `--nodes` builds a small world over them.
    if let Some(n) = args.nodes.filter(|&n| n <= SMALL_WORLD_K) {
        usage(&format!(
            "--nodes {n}: a small world needs more than {SMALL_WORLD_K}"
        ));
    }
    let wanted: Vec<Experiment> = EXPERIMENTS
        .into_iter()
        .filter(|(name, _)| named.iter().any(|n| n == name || n == "all"))
        .collect();
    if wanted.is_empty() {
        usage("name at least one experiment");
    }

    let runs = Runs {
        args,
        wanted: wanted.iter().map(|(name, _)| *name).collect(),
        panels: [OnceCell::new(), OnceCell::new()],
        sgx: [OnceCell::new(), OnceCell::new()],
    };
    for (_, view) in wanted {
        view(&runs);
        println!();
    }
}

/// The run families of one invocation, each made when first read.
struct Runs {
    args: BenchArgs,
    wanted: Vec<&'static str>,
    /// The one-user panels, then the multi-user ones.
    panels: [OnceCell<Panels>; 2],
    /// The SGX arms at Fig 6's scale, then at Fig 7's.
    sgx: [OnceCell<SgxArms>; 2],
}

/// The two families of panels, and per family: its title, the figures
/// that plot its centralized baseline, and the speed-ups the paper's
/// table over it (Table II, III) reports at full scale.
const ONE_USER: usize = 0;
const MULTI_USER: usize = 1;
const TITLES: [&str; 2] = ["one node per user", "multiple users per node"];
const BASELINE_FIGURES: [&[&str]; 2] = [&["fig1", "fig2"], &["fig4"]];
const PAPER_SPEEDUPS: [&str; 2] = ["18.3x / 11.5x / 7.5x / 2.3x", "3.3x / 2.4x / 7.5x / 2.8x"];

/// The four panels' `(REX, MS)` pairs in [`FOUR_PANELS`] order, and the
/// centralized baseline when a requested figure plots it.
struct Panels {
    family: usize,
    scale: MfScale,
    pairs: Vec<(ExperimentTrace, ExperimentTrace)>,
    baseline: Option<ExperimentTrace>,
}

/// The eight [`all_arms`] at one scale, each with its result.
struct SgxArms {
    scale: SgxScale,
    arms: Vec<(Arm, EngineResult)>,
}

impl Runs {
    fn wants(&self, any: &[&str]) -> bool {
        any.iter().any(|name| self.wanted.contains(name))
    }

    fn panels(&self, family: usize) -> &Panels {
        self.panels[family].get_or_init(|| {
            let args = &self.args;
            let mut scale = match (family, args.full) {
                (ONE_USER, _) => one_user_scale(args),
                (_, false) => MfScale::multi_user_quick(args),
                (_, true) => MfScale::multi_user_full(args),
            };
            // Fig 2 without Fig 1 or Table II reads only its first epochs.
            if family == ONE_USER && !self.wants(&["fig1", "table2"]) {
                scale.epochs = scale.epochs.min(FIG2_EPOCHS);
            }
            let with_baseline = self.wants(BASELINE_FIGURES[family]);
            Panels::run(family, scale, with_baseline)
        })
    }

    fn sgx(&self, beyond_epc: bool) -> &SgxArms {
        self.sgx[usize::from(beyond_epc)].get_or_init(|| {
            let args = &self.args;
            let scale = sgx_scale(args, beyond_epc);
            let users = scale.scenario.dataset.num_users;
            let backend = ArmBackend::from_args(args);
            let arms = all_arms()
                .into_iter()
                .map(|arm| {
                    eprintln!("[sgx {users}u] arm {}", arm.label());
                    (arm, run_arm_on(&scale, arm, backend))
                })
                .collect();
            SgxArms { scale, arms }
        })
    }
}

impl Panels {
    fn run(family: usize, scale: MfScale, with_baseline: bool) -> Self {
        let tag = TITLES[family];
        let pairs = FOUR_PANELS
            .iter()
            .map(|&(label, algorithm, topology)| {
                let pair = run_panel(&scale, label, algorithm, topology, ExecutionMode::Native);
                eprintln!("[{tag}] {}\n[{tag}] {}", pair.0.name, pair.1.name);
                pair
            })
            .collect();
        let baseline = with_baseline.then(|| {
            eprintln!("[{tag}] centralized baseline");
            run_baseline(&scale)
        });
        Panels {
            family,
            scale,
            pairs,
            baseline,
        }
    }

    /// Every series over its first `epochs` epochs: REX then MS per panel,
    /// then the baseline.
    fn traces(&self, epochs: usize) -> Vec<ExperimentTrace> {
        let pairs = self.pairs.iter().flat_map(|(rex, ms)| [rex, ms]);
        let prefix = |t: &ExperimentTrace| ExperimentTrace {
            name: t.name.clone(),
            records: t.records.iter().take(epochs).copied().collect(),
        };
        pairs.chain(&self.baseline).map(prefix).collect()
    }

    /// `"<name>: <family>. <users> users on <nodes> nodes, …"`.
    fn header(&self, name: &str, epochs: usize) -> String {
        let s = &self.scale.scenario;
        let (users, nodes, k) = (s.dataset.num_users, s.nodes, s.hp.k);
        let title = TITLES[self.family];
        format!("{name}: {title}. {users} users on {nodes} nodes, {epochs} epochs, k={k}")
    }
}

/// The SGX arms' scale: Fig 6's, or Fig 7's beyond the EPC; quick, or
/// the paper's under `--full`.
fn sgx_scale(args: &BenchArgs, beyond_epc: bool) -> SgxScale {
    match (args.full, beyond_epc) {
        (false, false) => SgxScale::fig6_quick(args),
        (true, false) => SgxScale::fig6_full(args),
        (false, true) => SgxScale::fig7_quick(args),
        (true, true) => SgxScale::fig7_full(args),
    }
}

fn one_user_scale(args: &BenchArgs) -> MfScale {
    if args.full {
        MfScale::one_user_full(args)
    } else {
        MfScale::one_user_quick(args)
    }
}

/// Prints each series' mean time per stage and epoch.
fn stage_breakdown(traces: &[ExperimentTrace]) {
    let rows = traces
        .iter()
        .map(|t| (t.name.clone(), t.mean_stage_times()));
    println!("{}", stage_breakdown_markdown(&rows.collect::<Vec<_>>()));
}

/// Prints each series' summary and saves them as `results/<name>.csv`.
fn series(name: &str, traces: &[ExperimentTrace]) {
    for t in traces {
        print_trace_summary(t);
    }
    save_traces(name, &traces.iter().collect::<Vec<_>>());
}

/// Figs 1 and 4: test error over simulated time, REX vs MS per panel and
/// the centralized baseline.
fn panels_figure(name: &str, p: &Panels) {
    println!("{}", p.header(name, p.scale.epochs));
    series(name, &p.traces(p.scale.epochs));
}

/// Fig 2: network volume and test error per epoch, over Fig 1's runs.
fn fig2(runs: &Runs) {
    let p = runs.panels(ONE_USER);
    let epochs = p.scale.epochs.min(FIG2_EPOCHS);
    println!("{}", p.header("fig2", epochs));
    let traces = p.traces(epochs);
    let per_epoch = |t: &ExperimentTrace| t.total_bytes_per_node() / t.records.len() as f64;
    // REX then MS per panel; the baseline is left over.
    for pair in traces.chunks_exact(2) {
        let (rex, ms) = (per_epoch(&pair[0]), per_epoch(&pair[1]));
        println!(
            "  {:<14} REX {:>12}/epoch   MS {:>12}/epoch   ratio {:>6.0}x",
            &pair[1].name[4..],
            human_bytes(rex),
            human_bytes(ms),
            ms / rex
        );
    }
    series("fig2", &traces);
}

/// Fig 3: embedding size k ∈ {10..50} for D-PSGD on a small world. MS
/// traffic grows linearly in k at little convergence benefit; REX's does
/// not depend on k.
fn fig3(runs: &Runs) {
    let args = &runs.args;
    let mut scale = one_user_scale(args);
    // The paper fixes 400 epochs for this sweep; quick mode trims it.
    scale.epochs = args.epochs.unwrap_or(if args.full { 400 } else { 60 });
    let (nodes, epochs) = (scale.scenario.nodes, scale.epochs);
    println!("fig3: embedding-size sweep, D-PSGD, SW. {nodes} nodes, {epochs} epochs");
    let (dpsgd, sw) = (GossipAlgorithm::DPsgd, TopologySpec::SmallWorld);
    let (rex, ms): (Vec<_>, Vec<_>) = [10usize, 20, 30, 40, 50]
        .into_iter()
        .map(|k| {
            let label = format!("D-PSGD, SW, k={k}");
            let pair = run_panel(&scale.with_k(k), &label, dpsgd, sw, ExecutionMode::Native);
            eprintln!("[fig3] {}\n[fig3] {}", pair.0.name, pair.1.name);
            pair
        })
        .unzip();
    let traces: Vec<_> = ms.into_iter().chain(rex).collect();
    series("fig3", &traces);
    let bytes = |i: usize| traces[i].total_bytes_per_node();
    let (ms, rex) = (bytes(4) / bytes(0), bytes(9) / bytes(5));
    println!("MS volume k=50 / k=10: {ms:.2}x (paper: ~4.6x, linear in k)");
    println!("REX volume k=50 / k=10: {rex:.2}x (paper: 1.0x, constant)");
}

/// Fig 5: the DNN model with D-PSGD, {SW, ER} × {REX, MS}: (a) stage
/// times, then data volume and test error per series.
fn fig5(runs: &Runs) {
    let args = &runs.args;
    let s = if args.full {
        DnnScale::full(args)
    } else {
        DnnScale::quick(args)
    };
    println!(
        "fig5: DNN recommender. {} users on {} nodes, {} epochs, {} pts/epoch",
        s.num_users, s.nodes, s.epochs, s.points_per_epoch
    );
    let traces = run_fig5(&s);
    stage_breakdown(&traces);
    series("fig5", &traces);
}

/// Figs 6 and 7: (a) the stage breakdown, (b) RAM and network per epoch,
/// (c)/(d) convergence of the native and SGX arms. Fig 7's EPC is scaled
/// so that the MS arms overcommit it as the paper's did (EXPERIMENTS.md).
fn sgx_figure(name: &str, s: &SgxArms) {
    let epc = s.scale.epc_limit_bytes as f64;
    let (users, nodes) = (s.scale.scenario.dataset.num_users, s.scale.scenario.nodes);
    let (epochs, budget) = (s.scale.epochs, human_bytes(epc));
    println!(
        "{name}: SGX vs native. {users} users on {nodes} nodes, {epochs} epochs, EPC {budget}"
    );
    // Each arm's trace is named by its label.
    let traces: Vec<_> = s.arms.iter().map(|(_, r)| r.trace.clone()).collect();
    stage_breakdown(&traces);
    for (arm, r) in &s.arms {
        let ram = r.trace.peak_ram_bytes();
        println!(
            "  {:<22} RAM {:>10} {:<12}  {:>12}/epoch   mean epoch {:>9.2} ms",
            arm.label(),
            human_bytes(ram),
            if ram > epc { "(beyond EPC)" } else { "" },
            human_bytes(r.trace.total_bytes_per_node() / r.trace.records.len() as f64),
            mean_epoch_secs(r) * 1e3,
        );
    }
    series(name, &traces);
}

/// Tables II and III: REX's speed-up over MS at the MS run's final error,
/// one row per panel in the paper's order (D-PSGD ER, RMW ER, D-PSGD SW,
/// RMW SW).
fn speedup_table(name: &str, p: &Panels) {
    println!("{}\n", p.header(name, p.scale.epochs));
    let mut rows = Vec::new();
    for idx in [3usize, 1, 2, 0] {
        let label = FOUR_PANELS[idx].0;
        let (rex, ms) = &p.pairs[idx];
        match speedup_row(label, rex, ms) {
            Some(row) => rows.push(row),
            None => eprintln!("[{name}] {label}: REX missed the MS target within the epoch budget"),
        }
    }
    let md = speedup_table_markdown(&rows, "s");
    println!("{md}");
    let _ = output::save(&format!("{name}.md"), &md).map(|p| println!("[saved] {}", p.display()));
    let paper = PAPER_SPEEDUPS[p.family];
    println!("(paper, full scale: {paper} in the same row order)");
}

/// Table IV: SGX overhead in execution time over native, with the memory
/// that explains it, for {RMW, D-PSGD} × {REX, MS} at both scales.
fn table4(runs: &Runs) {
    let backend = ArmBackend::from_args(&runs.args);
    println!("table4: SGX overhead vs native, {backend:?} fabric\n");
    let mut rows = Vec::new();
    for s in [runs.sgx(false), runs.sgx(true)] {
        let tag = format!("{}u", s.scale.scenario.dataset.num_users);
        // `all_arms` puts each arm's native run just before its SGX twin.
        for pair in s.arms.chunks(2) {
            if let [(arm, native), (_, sgx)] = pair {
                let (algorithm, sharing) = (arm.algorithm.label(), arm.sharing.label());
                let label = format!("{algorithm}, {sharing} ({tag})");
                rows.push(overhead_row(&label, sgx, native));
            }
        }
    }
    let md = overhead_table_markdown(&rows);
    println!("{md}");
    let _ = output::save("table4.md", &md).map(|p| println!("[saved] {}", p.display()));
    println!("(paper, 610u: REX 5-14 %, MS 51-70 %; 15000u: REX 8-17 %, MS 91-135 %)");
}

/// Ablation (paper §III-E): stateless sampling "may send the same data
/// points more than once, although the probability of duplicates
/// decreases as the data size increases". The duplicate rate a receiver
/// sees as its store fills, for several share sizes, on a fixed dataset.
fn ablation_duplicates(_: &Runs) {
    let dataset = SyntheticConfig {
        num_users: 64,
        num_items: 1_000,
        num_ratings: 10_000,
        seed: 4,
        ..SyntheticConfig::default()
    }
    .generate();
    println!("Duplicate rate of stateless sampling (sender store -> receiver store)\n");
    println!(
        "{:<14} {:<18} {:>14} {:>12}",
        "points/epoch", "receiver fill", "new items", "dup rate"
    );
    for points in [50usize, 300, 1000] {
        // The sender holds the full dataset; the receiver starts empty and
        // absorbs one sampled batch per epoch, from scratch for each count.
        let sender = RawDataStore::with_initial(dataset.ratings.clone());
        for epoch in [1usize, 5, 10, 20, 40] {
            let mut receiver = RawDataStore::new();
            let mut rng = StdRng::seed_from_u64(9);
            let (mut last_new, mut last_sent) = (0, 0);
            for _ in 0..epoch {
                let batch = sender.sample(points, &mut rng);
                last_sent = batch.len();
                last_new = receiver.append_batch(&batch);
            }
            let dup = (1.0 - last_new as f64 / last_sent.max(1) as f64) * 100.0;
            let fill = format!("{} / {} (e{epoch})", receiver.len(), sender.len());
            println!("{points:<14} {fill:<18} {last_new:>14} {dup:>11.1}%");
        }
        println!();
    }
    println!("The fuller the receiver, the more of each batch it already holds.");
}

/// Ablation: shrinks the usable EPC under a fixed D-PSGD workload and
/// charts the SGX overhead of REX and MS, the mechanism behind Fig 7 and
/// Table IV's beyond-EPC rows. MS, whose resident set holds neighbour
/// models and buffers, should blow up first as the budget shrinks.
fn ablation_epc(runs: &Runs) {
    let base = epc_sweep_base(&runs.args);
    let d = &base.scenario.dataset;
    let (users, ratings) = (d.num_users, d.num_ratings);
    println!("ablation_epc: EPC budget sweep ({users} users, {ratings} ratings, D-PSGD)\n");
    let mean_epoch = |scale: &SgxScale, sharing: SharingMode, sgx: bool| {
        let algorithm = GossipAlgorithm::DPsgd;
        let arm = Arm {
            algorithm,
            sharing,
            sgx,
        };
        let epc = human_bytes(scale.epc_limit_bytes as f64);
        eprintln!("[ablation_epc] arm {}, EPC {epc}", arm.label());
        mean_epoch_secs(&run_arm(scale, arm))
    };
    let t_rex = mean_epoch(&base, SharingMode::RawData, false);
    let t_ms = mean_epoch(&base, SharingMode::Model, false);

    println!(
        "{:>12} {:>16} {:>16}",
        "EPC budget", "REX overhead %", "MS overhead %"
    );
    let unlimited = SgxCostModel::default().epc_limit_bytes;
    for epc_limit_bytes in [unlimited, 16 << 20, 8 << 20, 4 << 20, 2 << 20, 1 << 20] {
        let scale = SgxScale {
            epc_limit_bytes,
            ..base.clone()
        };
        let o_rex = (mean_epoch(&scale, SharingMode::RawData, true) / t_rex - 1.0) * 100.0;
        let o_ms = (mean_epoch(&scale, SharingMode::Model, true) / t_ms - 1.0) * 100.0;
        let epc = human_bytes(epc_limit_bytes as f64);
        println!("{epc:>12} {o_rex:>15.1}% {o_ms:>15.1}%");
    }
}

/// The EPC sweep's workload: Fig 7's scale, for 12 epochs unless
/// `--epochs` says otherwise.
fn epc_sweep_base(args: &BenchArgs) -> SgxScale {
    SgxScale {
        epochs: args.epochs.unwrap_or(12),
        ..sgx_scale(args, true)
    }
}

/// Ablation (paper §III-E): "Sharing data brings the question of how much
/// to share in every epoch. We treat this as another hyperparameter."
/// Sweeps the raw points shared per epoch: accuracy saturates while bytes
/// grow linearly, which is why the paper picks 300 (MF).
fn ablation_share_size(runs: &Runs) {
    let base = one_user_scale(&runs.args);
    let (nodes, epochs) = (base.scenario.nodes, base.epochs);
    println!("ablation_share_size: points per epoch, D-PSGD, SW. {nodes} nodes, {epochs} epochs");
    let (sw, dpsgd) = (TopologySpec::SmallWorld, GossipAlgorithm::DPsgd);
    let mut traces = Vec::new();
    for points in [10usize, 50, 100, 300, 1000, 3000] {
        let mut scale = base.clone();
        scale.scenario.protocol.points_per_epoch = points;
        eprintln!("[ablation_share_size] points/epoch = {points}");
        let mut nodes = build_fleet(&scale, sw, SharingMode::RawData, dpsgd);
        let cfg = EngineConfig::default();
        let engine = Engine::new(MemNetwork::new(nodes.len()), EngineConfig { epochs, ..cfg });
        traces.push(engine.run(&format!("REX, {points} pts"), &mut nodes).trace);
    }
    series("ablation_share_size", &traces);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--full` sweeps Fig 7's full shape, as `repro fig7 --full` runs it.
    #[test]
    fn the_epc_sweep_takes_fig7s_scale_for_the_mode_asked() {
        let shape = |s: &SgxScale| {
            let d = &s.scenario.dataset;
            (d.num_users, d.num_items, d.num_ratings, s.scenario.nodes)
        };
        for full in [false, true] {
            let args = BenchArgs {
                full,
                ..BenchArgs::default()
            };
            let base = epc_sweep_base(&args);
            let fig7 = if full {
                SgxScale::fig7_full(&args)
            } else {
                SgxScale::fig7_quick(&args)
            };
            assert_eq!(shape(&base), shape(&fig7), "full = {full}");
            assert_eq!(base.epochs, 12);
        }
        let args = BenchArgs {
            epochs: Some(3),
            ..BenchArgs::default()
        };
        assert_eq!(epc_sweep_base(&args).epochs, 3);
    }
}
