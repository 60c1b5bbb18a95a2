//! A reader that closes the pipe early (`scoop-lab report | head -1`) ends
//! the command's output, not the command: the binary finishes its side
//! effects and exits 0 instead of panicking on the failed write.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `scoop-lab args` with its stdout closed right after the spawn and
/// asserts a clean exit 0.
fn run_into_closed_pipe(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scoop-lab"))
        .args(args)
        .current_dir(workspace_root())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("scoop-lab starts");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("scoop-lab exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
}

#[test]
fn commands_finish_their_work_when_stdout_closes() {
    let dir = std::env::temp_dir().join(format!("scoop-lab-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("EXPERIMENTS.md");
    let results = dir.join("results");

    run_into_closed_pipe(&[
        "report",
        "--results=results",
        &format!("--out={}", out.display()),
    ]);
    assert!(out.exists(), "report must still write --out");
    run_into_closed_pipe(&["diff", "--results=results"]);
    run_into_closed_pipe(&[
        "run",
        "--quick",
        "--trials=1",
        &format!("--results={}", results.display()),
        "fig3-middle",
    ]);
    assert!(
        results.join("fig3-middle.json").exists(),
        "run must still save its artifact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
