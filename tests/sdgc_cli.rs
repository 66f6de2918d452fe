//! Drives the `sdgc` binary itself: behaviour that only shows at the
//! process boundary (exit codes, stderr, a reader that goes away).

use std::process::{Command, Stdio};

fn sdgc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sdgc"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

/// `sdgc explain … | head -1`: the reader closes the pipe while sdgc is
/// still printing. That is a clean exit, not a panic.
#[cfg(unix)]
#[test]
fn a_closed_stdout_is_a_clean_exit() {
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;

    // A socket whose peer is already closed: every write fails with
    // EPIPE, so the test does not race the child's first line.
    let (reader, writer) = UnixStream::pair().unwrap();
    drop(reader);
    let out = sdgc()
        .args(["explain", "examples/cf.sl"])
        .stdout(Stdio::from(OwnedFd::from(writer)))
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert_eq!(stderr, "", "nothing to report on stderr");
}

/// A request that does not fit its entry method's signature is rejected
/// before anything is deployed, naming the signature.
#[test]
fn run_validates_requests_against_the_entry_signature() {
    for (request, complaint) in [
        ("put k=1", "entry put(k, v) is missing field 'v'"),
        ("put k=1 v=hi w=3", "entry put(k, v) has no field 'w'"),
        (
            "putt k=1 v=hi",
            "no entry method 'putt' (entries: put, get, bump, putAck)",
        ),
    ] {
        // The valid first request must not run either: validation covers
        // the whole command line before the deployment starts.
        let out = sdgc()
            .args(["run", "examples/kv.sl", "putAck k=1 v=hi", request])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "request '{request}'");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("sdgc: request '{request}': {complaint}\n")
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), "", "nothing ran");
    }
}

/// `sdgc lint` prints the diagnostics and nothing else: each bad fixture's
/// output is its golden byte for byte, and a clean program prints exactly
/// one line. It exits 1 only on an error-severity finding.
#[test]
fn lint_prints_the_goldens_and_nothing_else() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<_> = std::fs::read_dir(root.join("tests/fixtures/lint"))
        .unwrap()
        .chain(std::fs::read_dir(root.join("examples")).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sl"))
        .collect();
    sources.sort();
    let (mut bad, mut clean) = (0, 0);
    for path in sources {
        let out = sdgc().arg("lint").arg(&path).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let name = path.display();
        if path.to_string_lossy().ends_with("_bad.sl") {
            let golden = std::fs::read_to_string(path.with_extension("golden")).unwrap();
            assert_eq!(stdout, golden, "{name}");
            let has_error = golden.lines().any(|l| l.starts_with("error["));
            assert_eq!(out.status.success(), !has_error, "{name}");
            bad += 1;
        } else {
            assert_eq!(stdout, "ok: no diagnostics\n", "{name}");
            assert!(out.status.success(), "{name}");
            clean += 1;
        }
    }
    // 29 fixtured codes, a bad and a clean file each, plus four examples.
    assert_eq!((bad, clean), (29, 33));
}
