//! Minimal CLI parsing shared by the bench binaries (no external parser:
//! two flags and two overrides).

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Run the paper-scale configuration instead of the quick one.
    pub full: bool,
    /// Run real-thread arms over the TCP loopback transport instead of
    /// the split in-memory fabric (where the binary supports it).
    pub tcp: bool,
    /// Override the epoch budget.
    pub epochs: Option<usize>,
    /// Override the node count (where meaningful).
    pub nodes: Option<usize>,
    /// Base seed.
    pub seed: u64,
    /// Compare against a committed baseline JSON and exit non-zero on
    /// regression (where the binary supports it — see `bench_transport`).
    pub check_baseline: Option<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            full: false,
            tcp: false,
            epochs: None,
            nodes: None,
            seed: 0xBE7C,
            check_baseline: None,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`; exits with usage on unknown flags.
    #[must_use]
    pub fn parse() -> Self {
        Self::try_from_args(std::env::args().skip(1))
            .unwrap_or_else(|err| exit_with_usage("<bench>", &err))
    }

    /// Parses from an iterator. `Err` carries what was wrong, or is
    /// empty when `--help` asked for the usage.
    pub fn try_from_args<I: IntoIterator<Item = String>>(iter: I) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut iter = iter.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => out.full = true,
                // Quick is the default; the flag exists so CI jobs can
                // spell the mode they mean.
                "--quick" => out.full = false,
                "--tcp" => out.tcp = true,
                "--epochs" => out.epochs = Some(number(iter.next(), "--epochs")?),
                "--nodes" => out.nodes = Some(number(iter.next(), "--nodes")?),
                "--seed" => out.seed = number(iter.next(), "--seed")?,
                "--check-baseline" => {
                    out.check_baseline = Some(iter.next().ok_or("--check-baseline needs a path")?);
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }
}

fn number<T: std::str::FromStr>(value: Option<String>, flag: &str) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

/// The flags every bench binary takes, for usage lines.
const FLAGS: &str =
    "[--full | --quick] [--tcp] [--epochs N] [--nodes N] [--seed N] [--check-baseline PATH]";

/// Prints `err` (unless empty) and the usage line `usage: <synopsis>
/// FLAGS`, then exits: 0 for an empty `err` (`--help`), 2 otherwise.
pub fn exit_with_usage(synopsis: &str, err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: {synopsis} {FLAGS}");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::try_from_args(args.iter().map(|s| s.to_string())).expect("valid flags")
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert!(!a.full);
        assert!(a.epochs.is_none());
        assert!(!parse(&["--quick"]).full);
        assert!(!parse(&["--full", "--quick"]).full, "last flag wins");
    }

    #[test]
    fn flags() {
        let a = parse(&[
            "--full",
            "--tcp",
            "--epochs",
            "42",
            "--nodes",
            "16",
            "--seed",
            "9",
            "--check-baseline",
            "results/BENCH_transport.json",
        ]);
        assert!(a.full);
        assert!(a.tcp);
        assert_eq!(a.epochs, Some(42));
        assert_eq!(a.nodes, Some(16));
        assert_eq!(a.seed, 9);
        assert_eq!(
            a.check_baseline.as_deref(),
            Some("results/BENCH_transport.json")
        );
    }
}
