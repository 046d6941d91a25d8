//! The repo benchmark. One invocation runs one workload in this process:
//!
//! ```text
//! rex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! Every metric is printed by name with its unit, the outputs are checked,
//! and the last line of standard output is the result object. `run.sh`
//! builds this binary and is the command `BENCHMARK.json` names.

mod api;
mod host;
mod json;
mod layers;
mod stats;
mod trace;
mod workloads;

use json::{Json, Metric};
use std::path::PathBuf;
use workloads::{Request, Workload, WORKLOADS};

struct Args {
    workload: &'static Workload,
    req: Request,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: rex-benchmark --workload <{}> [--seed <n>] [--seconds <1..60>] [--trace <0|1>] \
         [--smoke] [--out <dir>]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke, mut out) =
        (workloads::PINNED_SEED, None, false, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // A smoke run is one second's worth of every epoch budget.
    let seconds = seconds.unwrap_or(if smoke { 1 } else { workloads::NOMINAL_SECONDS });
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds: {seconds} outside 1..60"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        req: Request {
            seed,
            seconds,
            smoke,
            // A traced run measures a shortened run of the workload.
            short: trace,
        },
        out,
    })
}

fn print_metrics(metrics: &[Metric], notes: &[(&'static str, String)]) {
    for m in metrics {
        let note = notes
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, note)| format!("  ({note})"))
            .unwrap_or_default();
        println!("{:<36} {:>20} {}{note}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let (w, req) = (args.workload, &args.req);
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        w.name,
        req.seed,
        req.seconds,
        u8::from(req.short),
        if req.smoke {
            "  SMOKE: schema and correctness only, timings are not results"
        } else {
            ""
        }
    );
    println!("why: {}", w.why);
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut run = w.run(req)?;
    let e2e = workloads::end_to_end(w, req, &run)?;
    let mut flags: Vec<String> = e2e.problems.clone();
    if run.steal_share > 0.10 {
        // Flagged, never dropped or adjusted.
        flags.push(format!(
            "host steal {:.1}% of CPU time during the run",
            run.steal_share * 100.0
        ));
    }

    let reported = if req.short {
        println!("end-to-end metrics of the shortened run (not results):");
        print_metrics(&e2e.metrics, &e2e.notes);
        let trace_file = args
            .out
            .as_ref()
            .map(|dir| dir.join(format!("trace_{}.jsonl", w.name)));
        let layer = layers::per_layer(w, req, &mut run, trace_file.as_deref())?;
        println!("per-layer metrics:");
        print_metrics(&layer, &[]);
        layer
    } else {
        print_metrics(&e2e.metrics, &e2e.notes);
        println!("informational, never bounded:");
        print_metrics(&e2e.informational, &e2e.notes);
        println!(
            "{:<36} {:>20} ms  (before/after the run; steal {:.2}%)",
            "host.probe_ms",
            format!("{:.2}/{:.2}", run.probe_ms.0, run.probe_ms.1),
            run.steal_share * 100.0
        );
        e2e.metrics
    };
    let exact: Vec<String> = e2e
        .exact
        .iter()
        .map(|(name, v)| format!("{name} {v:#x}"))
        .collect();
    println!("exact outputs: {}", exact.join(", "));
    println!("ops_attempted {} ops_failed {}", e2e.attempted, e2e.failed);
    for flag in &flags {
        println!("flag: {flag}");
    }

    let correct = e2e.problems.is_empty() && e2e.failed == 0;
    let result = json::result(correct, e2e.attempted, e2e.failed, &reported);
    let line = result.render()?;
    if let Some(dir) = &args.out {
        let record = Json::Obj(vec![
            ("workload".into(), Json::Str(w.name.into())),
            ("seed".into(), Json::Int(req.seed)),
            ("seconds".into(), Json::Int(req.seconds)),
            ("trace".into(), Json::Bool(req.short)),
            ("smoke".into(), Json::Bool(req.smoke)),
            ("epochs".into(), Json::Int(w.epochs(req) as u64)),
            (
                "exact".into(),
                Json::Obj(
                    e2e.exact
                        .iter()
                        .map(|&(name, v)| (name.into(), Json::Int(v)))
                        .collect(),
                ),
            ),
            (
                "informational".into(),
                Json::Obj(
                    e2e.informational
                        .iter()
                        .map(|m| (m.name.into(), Json::Num(m.value)))
                        .collect(),
                ),
            ),
            (
                "flags".into(),
                Json::Arr(flags.iter().cloned().map(Json::Str).collect()),
            ),
            ("result".into(), result),
        ]);
        let path = dir.join(format!("{}.json", w.name));
        let text = record.render()? + "\n";
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(line)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    match run(&args) {
        // The result object is the last line of standard output.
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv("--workload ms-model --seed 9 --seconds 22 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.name, a.req.seed, a.req.seconds),
            ("ms-model", 9, 22)
        );
        assert!(a.req.short && !a.req.smoke && a.out.is_none());
        let smoke = parse_args(&argv("--workload sim-fleet --smoke")).unwrap();
        assert_eq!(
            (smoke.req.seconds, smoke.req.seed, smoke.req.smoke),
            (1, 42, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload rex-raw --seconds 0",
            "--workload rex-raw --seconds 61",
            "--workload rex-raw --trace yes",
            "--workload rex-raw --seed",
            "--workload rex-raw --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
