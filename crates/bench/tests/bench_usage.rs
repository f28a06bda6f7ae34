//! `bench` takes exactly one report path and an optional `--enforce`:
//! anything else prints its usage and exits 2 before any work, so a bare
//! or mistyped run never overwrites a report or silently skips the gates.

use std::process::Command;

#[test]
fn bench_binaries_without_a_report_path_exit_2_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("uptime-bench-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    let no_args: &[&str] = &[];
    for args in [
        no_args,
        &["out.json", "--enforc"],
        &["out.json", "other.json"],
        &["--enforce"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: bench OUT.json [--enforce]"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: bench did work");
        let written = std::fs::read_dir(&dir).expect("list the directory").count();
        assert_eq!(written, 0, "{args:?}: bench wrote a file");
    }
    std::fs::remove_dir(&dir).expect("remove the scratch directory");
}
