//! The kernel bench binaries take their report path as a required
//! argument: a bare run prints its usage and exits 2 before any work, so
//! it never overwrites a checked-in `BENCH_PR*.json`.

use std::process::Command;

#[test]
fn bench_binaries_without_a_report_path_exit_2_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("uptime-bench-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    for (name, bin) in [
        ("bench", env!("CARGO_BIN_EXE_bench")),
        ("bnb_bench", env!("CARGO_BIN_EXE_bnb_bench")),
        ("composition_bench", env!("CARGO_BIN_EXE_composition_bench")),
        ("journal_bench", env!("CARGO_BIN_EXE_journal_bench")),
    ] {
        let out = Command::new(bin)
            .current_dir(&dir)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("usage: {name} OUT.json")),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} did work before exiting");
        let written = std::fs::read_dir(&dir).expect("list the directory").count();
        assert_eq!(written, 0, "{name} wrote a file");
    }
    std::fs::remove_dir(&dir).expect("remove the scratch directory");
}
