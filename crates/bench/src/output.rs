//! Result emission: CSVs under `results/`, markdown to stdout.

use rex_sim::trace::ExperimentTrace;
use std::path::PathBuf;

/// Directory where bench binaries drop their CSVs: `results/` under the
/// workspace root, wherever inside the workspace the binary was started.
#[must_use]
pub fn results_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    results_dir_from(&cwd)
}

/// Walks up from `start` to the workspace root — the directory holding
/// the workspace `Cargo.lock` (member crates have a `Cargo.toml` but no
/// lock file) — falling back to `./results` outside any workspace.
fn results_dir_from(start: &std::path::Path) -> PathBuf {
    start
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").exists())
        .map_or_else(|| PathBuf::from("results"), |root| root.join("results"))
}

/// Writes `content` under `results/<name>`, creating the directory.
pub fn save(name: &str, content: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

/// Saves traces as `results/<name>.csv` and reports the path on stdout.
pub fn save_traces(name: &str, traces: &[&ExperimentTrace]) {
    let csv = rex_sim::report::traces_to_csv(traces);
    match save(&format!("{name}.csv"), &csv) {
        Ok(path) => println!("[saved] {}", path.display()),
        Err(e) => eprintln!("[warn] could not save {name}.csv: {e}"),
    }
}

/// Prints a one-line summary of a trace.
pub fn print_trace_summary(t: &ExperimentTrace) {
    let bytes = t.total_bytes_per_node();
    println!(
        "  {:<28} epochs={:<4} time={:>9.2}s final_rmse={:.4} bytes/node={}",
        t.name,
        t.records.len(),
        t.duration_secs(),
        t.final_rmse().unwrap_or(f64::NAN),
        human_bytes(bytes),
    );
}

/// Human-readable byte count.
#[must_use]
pub fn human_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.2} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.2} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512.0), "512 B");
        assert_eq!(human_bytes(2048.0), "2.00 KiB");
        assert_eq!(human_bytes(3.0 * 1024.0 * 1024.0), "3.00 MiB");
        assert_eq!(human_bytes(1.5 * 1024.0 * 1024.0 * 1024.0), "1.50 GiB");
    }

    #[test]
    fn results_dir_finds_workspace() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
    }

    #[test]
    fn results_dir_is_the_workspace_root_from_a_subdirectory() {
        // `cargo test` runs from the crate directory (crates/bench); a
        // bench bin started there or deeper must still write to the
        // workspace root's results/, not to a results/ of its own.
        let crate_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate_dir.parent().and_then(|p| p.parent()).unwrap();
        assert!(root.join("Cargo.lock").exists(), "workspace root moved");
        for start in [crate_dir.to_path_buf(), crate_dir.join("src").join("bin")] {
            assert_eq!(results_dir_from(&start), root.join("results"));
        }
        assert_eq!(results_dir(), root.join("results"));
    }
}
