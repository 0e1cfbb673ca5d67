//! Smoke tests of the `eventhit-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eventhit-cli"))
}

#[test]
fn tasks_lists_table2() {
    let out = cli().arg("tasks").output().expect("run cli");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TA1\t"));
    assert!(stdout.contains("TA16\t"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = cli().arg("frobnicate").output().expect("run cli");
    assert!(!out.status.success());
}

#[test]
fn train_then_evaluate_round_trip() {
    let dir = std::env::temp_dir();
    let model = dir.join("eventhit_cli_test.evht");
    let model_s = model.to_str().unwrap().to_string();

    let out = cli()
        .args([
            "train", "--task", "TA10", "--scale", "0.08", "--seed", "3", "--out", &model_s,
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    let out = cli()
        .args([
            "evaluate", "--task", "TA10", "--scale", "0.08", "--seed", "3", "--model", &model_s,
            "--c", "0.9", "--alpha", "0.5",
        ])
        .output()
        .expect("run evaluate");
    assert!(
        out.status.success(),
        "evaluate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REC "), "{stdout}");
    assert!(stdout.contains("expense"), "{stdout}");

    let _ = std::fs::remove_file(model);
}

/// Every file under `dir`, skipping the build and git directories that
/// cargo itself writes to while the suite runs.
fn files_under(dir: &std::path::Path, out: &mut std::collections::BTreeSet<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with(".git") {
                files_under(&path, out);
            }
        } else {
            out.insert(path);
        }
    }
}

#[test]
fn bench_fleet_smoke_has_no_divergence_and_writes_nothing() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut before = std::collections::BTreeSet::new();
    files_under(root, &mut before);

    let out = cli()
        .args(["bench-fleet", "--smoke", "--streams", "64", "--shards", "2"])
        .output()
        .expect("run bench-fleet");
    assert!(
        out.status.success(),
        "bench-fleet failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("decision divergence: none"), "{stdout}");
    // Throughput is the benchmark's to report, not this check's.
    assert!(
        !stdout.contains("frames_per_s") && !stdout.contains("elapsed_s"),
        "{stdout}"
    );

    let mut after = std::collections::BTreeSet::new();
    files_under(root, &mut after);
    assert_eq!(before, after, "bench-fleet must not write into the repo");
}
