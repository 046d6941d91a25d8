//! The `--check-baseline` comparisons behind [`crate::harness::finish`]:
//! read named summary numbers out of a committed `results/BENCH_*.json`,
//! compare this run's against them, and say so in one wording.
//!
//! The gated numbers are machine-speed-independent (ratios, bytes per
//! user), so one tolerance serves every bin.

/// A gated number may be worse than its committed value by at most this
/// factor.
pub const TOLERANCE: f64 = 1.25;

/// Extracts `"<name>": <number>` from a baseline JSON without a JSON
/// parser (fixed schema, written by the bench bins themselves).
#[must_use]
pub fn field(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let rest = &text[text.find(&key)? + key.len()..];
    let end = rest.find(['}', ',', '\n'])?;
    rest[..end].trim().parse().ok()
}

/// Gate for a speed-up: `measured` may not fall below
/// `committed / TOLERANCE`. Prints the verdict; `false` is a regression.
#[must_use]
pub fn holds_floor(name: &str, measured: f64, committed: f64) -> bool {
    let limit = committed / TOLERANCE;
    verdict(name, measured, committed, limit, '/', measured >= limit)
}

/// Gate for a cost: `measured` may not rise above
/// `committed * TOLERANCE`. Prints the verdict; `false` is a regression.
#[must_use]
pub fn holds_ceiling(name: &str, measured: f64, committed: f64) -> bool {
    let limit = committed * TOLERANCE;
    verdict(name, measured, committed, limit, 'x', measured <= limit)
}

/// The one "measured vs committed" wording every bin prints.
fn verdict(name: &str, measured: f64, committed: f64, limit: f64, op: char, ok: bool) -> bool {
    let basis = format!("limit {limit:.2} = committed {committed:.2} {op} {TOLERANCE}");
    if ok {
        println!("baseline check: {name} measured {measured:.2}, {basis}");
    } else {
        eprintln!("REGRESSION: {name} measured {measured:.2}, {basis}");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_reads_summary_numbers_wherever_they_sit() {
        let text = "{\n  \"rows\": [\n    {\"arm\": \"a\", \"ms\": 1.81}\n  ],\n  \
                    \"summary\": {\"dot32_speedup\": 3.46, \"commit_speedup\": 12.50}\n}\n";
        assert_eq!(field(text, "dot32_speedup"), Some(3.46));
        assert_eq!(field(text, "commit_speedup"), Some(12.5));
        assert_eq!(field(text, "ms"), Some(1.81));
        assert_eq!(field(text, "sweep_speedup"), None);
        assert_eq!(field("{\"x\": \"text\"}", "x"), None);
    }

    #[test]
    fn the_gate_is_a_floor_for_speedups_and_a_ceiling_for_costs() {
        assert!(holds_floor("up", 8.0, 10.0));
        assert!(!holds_floor("up", 7.9, 10.0));
        assert!(holds_ceiling("cost", 12.5, 10.0));
        assert!(!holds_ceiling("cost", 12.6, 10.0));
    }
}
