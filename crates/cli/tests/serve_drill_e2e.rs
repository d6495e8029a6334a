//! End-to-end crash-restart drill through the real `lahd` binary.
//!
//! This is the SIGKILL half of the recovery pin (the graceful-restart
//! half lives in the serve crate's lifecycle tests): a durable daemon is
//! killed mid-load as a real child process, restarted with `--recover`,
//! and must serve the post-crash window action-checksum-identically to an
//! uninterrupted reference daemon. The corrupt variant injects seeded
//! disk faults (torn tail, bit flip, duplicated journal record) between
//! kill and restart and must quarantine the damage without panicking.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use lahd_serve::HostedDaemon;

/// Tiny artifacts from seed 22: unlike the `tiny()` default's one-action
/// machine, it answers at least two distinct actions in the drill window,
/// so the lockstep pin can fail.
const SMOKE: [&str; 4] = ["--scale", "tiny", "--seed", "22"];

fn exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_lahd"))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lahd-drill-e2e-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains artifacts under `flags` into a fresh directory.
fn train(name: &str, flags: &[&str]) -> PathBuf {
    let artifacts = fresh_dir(name);
    let trained = Command::new(exe())
        .arg("pipeline")
        .args(flags)
        .arg("--out")
        .arg(&artifacts)
        .output()
        .expect("spawn lahd pipeline");
    assert!(
        trained.status.success(),
        "pipeline failed: {}",
        String::from_utf8_lossy(&trained.stderr)
    );
    artifacts
}

fn run_drill(
    flags: &[&str],
    artifacts: &PathBuf,
    work: &PathBuf,
    json: &PathBuf,
    corrupt: bool,
) -> (bool, String) {
    let mut cmd = Command::new(exe());
    cmd.arg("serve-drill")
        .args(flags)
        .args([
            "--streams",
            "16",
            "--rounds-before",
            "4",
            "--rounds-after",
            "4",
            "--shards",
            "2",
        ])
        .arg("--artifacts")
        .arg(artifacts)
        .arg("--work-dir")
        .arg(work)
        .arg("--json")
        .arg(json);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().expect("spawn lahd serve-drill");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// The `"distinct_actions"` field of a drill summary.
fn distinct_actions(summary: &str) -> u64 {
    let at = summary
        .find("\"distinct_actions\":")
        .expect("field present")
        + 19;
    summary[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn sigkill_recovery_drill_end_to_end() {
    let artifacts = train("artifacts", &SMOKE);

    // Clean drill, twice: it must pass its gate and its JSON summary must
    // be byte-reproducible across runs.
    let mut summaries = Vec::new();
    for run in 0..2 {
        let work = fresh_dir(&format!("clean-{run}"));
        let json = work.join("outcome.json");
        let (ok, text) = run_drill(&SMOKE, &artifacts, &work, &json, false);
        assert!(ok, "clean drill {run} failed:\n{text}");
        assert!(text.contains("clean drill SURVIVED"), "{text}");
        summaries.push(std::fs::read_to_string(&json).unwrap());
    }
    assert_eq!(
        summaries[0], summaries[1],
        "same-seed drill JSON must be byte-identical"
    );
    assert!(
        summaries[0].contains("\"lockstep\":true")
            && summaries[0].contains("\"resumed_pct\":100")
            && summaries[0].contains("\"quarantined\":0")
            && summaries[0].contains("\"clean_exit\":true"),
        "{}",
        summaries[0]
    );
    assert!(distinct_actions(&summaries[0]) >= 2, "{}", summaries[0]);

    // Corrupt drill: seeded disk faults land between kill and restart;
    // recovery must quarantine the damaged records and exit cleanly.
    let work = fresh_dir("corrupt");
    let json = work.join("outcome.json");
    let (ok, text) = run_drill(&SMOKE, &artifacts, &work, &json, true);
    assert!(ok, "corrupt drill failed:\n{text}");
    assert!(text.contains("corrupt drill SURVIVED"), "{text}");
    let summary = std::fs::read_to_string(&json).unwrap();
    assert!(
        !summary.contains("\"quarantined\":0,"),
        "faults must quarantine at least one record: {summary}"
    );
    assert!(
        summary.contains("\"faults\":\"shard-") && summary.contains("torn-write"),
        "fault description missing: {summary}"
    );
    assert!(summary.contains("\"clean_exit\":true"), "{summary}");
}

#[test]
fn drill_children_get_every_scale_flag() {
    // A non-default hidden width changes the artifacts' tensor shapes, so
    // a child daemon not given `--hidden` rejects them. Seed 10, because
    // at this width seed 22's machine answers one action in the window.
    let flags = ["--scale", "tiny", "--hidden", "16", "--seed", "10"];
    let artifacts = train("hidden16", &flags);
    let work = fresh_dir("hidden16-drill");
    let json = work.join("outcome.json");
    let (ok, text) = run_drill(&flags, &artifacts, &work, &json, false);
    assert!(ok, "hidden-16 drill failed:\n{text}");
    assert!(text.contains("clean drill SURVIVED"), "{text}");
}

#[test]
fn child_that_exits_before_binding_is_reported_with_its_stderr() {
    let empty = fresh_dir("no-artifacts");
    let socket = empty.join("daemon.sock");
    let args = ["--scale", "tiny", "--artifacts", empty.to_str().unwrap()].map(String::from);
    let started = Instant::now();
    let err = HostedDaemon::spawn(&exe(), &args, &socket)
        .err()
        .expect("a daemon without artifacts must not start");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "took {:?} to notice the child had exited",
        started.elapsed()
    );
    assert!(
        err.contains("before binding") && err.contains("artifact validation failed"),
        "{err}"
    );
}
