//! The experiment binaries' front end, driven through `table3`: bad
//! flags fail before any work starts, and a run that dies still closes
//! its ledger.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh working directory, so the binary's `target/experiments` and
/// `runs/` land in scratch space.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lithogan-bench-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn table3(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table3"))
        .current_dir(cwd)
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn bad_flags_fail_before_any_work() {
    let dir = scratch("flags");
    for (args, named) in [
        (&["--seed=3", "--clip=2", "--quik"][..], "--seed=3"),
        (&["--quick", "--quik"][..], "--quik"),
        (&["--seeds=x"][..], "--seeds"),
        (&["--epochs=-1"][..], "--epochs"),
        (&["--threads", "many"][..], "--threads"),
    ] {
        let out = table3(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // Exit 1 with a message, not a panic's 101.
        assert_eq!(out.status.code(), Some(1), "{args:?}\nstderr:\n{stderr}");
        assert!(stderr.contains(named), "{args:?}\nstderr:\n{stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).is_empty(),
            "{args:?} printed output"
        );
    }
    // Nothing was recorded or generated.
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_run_that_panics_is_finalized_as_error() {
    let dir = scratch("panic");
    // `target` is a plain file, so creating the experiment output
    // directory panics before any dataset is generated.
    fs::write(dir.join("target"), b"not a directory").unwrap();
    let out = table3(&dir, &["--quick", "--runs-root=runs"]);
    assert_eq!(
        out.status.code(),
        Some(101),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let runs = dir.join("runs");
    let run = fs::read_dir(&runs)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir())
        .expect("run directory");
    let manifest = fs::read_to_string(run.join("manifest.json")).unwrap();
    assert!(manifest.contains(r#""status":"error""#), "{manifest}");
    assert!(manifest.contains(r#""command":"table3""#), "{manifest}");
    let index = fs::read_to_string(runs.join("index.jsonl")).unwrap();
    assert_eq!(index.lines().count(), 1, "{index}");
    fs::remove_dir_all(&dir).unwrap();
}
