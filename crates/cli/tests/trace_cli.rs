//! `agp trace` refuses a zero sampling period: a sampler that
//! reschedules itself at the same instant would keep the run from ever
//! ending.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Ample for a debug build to start and refuse the config; a run that
/// hangs is killed here, so the test fails instead of hanging too.
const DEADLINE: Duration = Duration::from_secs(60);

#[test]
fn trace_refuses_a_zero_sampling_period() {
    let perfetto = std::env::temp_dir().join(format!("agp-trace-cli-{}.json", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_agp"))
        .args(["trace", "fig6", "--sample-ms", "0", "--perfetto"])
        .arg(&perfetto)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn agp");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll agp") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`agp trace fig6 --sample-ms 0` still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("sample_every must be positive"), "{stderr}");
    assert!(!perfetto.exists(), "a refused run writes no trace");
}
