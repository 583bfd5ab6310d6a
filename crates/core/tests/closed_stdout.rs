//! A closed stdout is the end of the CLI's output, not a crash:
//! `lithogan_cli help | head -1` must not panic when `head` exits.

use std::process::{Command, Stdio};

#[test]
fn help_into_a_closed_pipe_exits_cleanly() {
    // A pipe whose read end is already closed: the first write fails with
    // EPIPE, whatever the scheduling.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_lithogan_cli"))
        .args(["--no-run", "help"])
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn lithogan_cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
}

#[test]
fn any_other_write_error_is_an_io_error() {
    // Writes to /dev/full fail with ENOSPC; skip where it does not exist.
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = Command::new(env!("CARGO_BIN_EXE_lithogan_cli"))
        .args(["--no-run", "help"])
        .stdout(Stdio::from(full))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn lithogan_cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("i/o error: "), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
}
