//! Golden wire-protocol transcript: replays `examples/server/smoke.jsonl`
//! against an in-process server (no injected clock, so every timing field
//! renders as zero — the `--no-timing` convention) and diffs the response
//! lines against the committed `examples/server/smoke.golden.jsonl`.
//!
//! On mismatch the test points at the first diverging line; run with
//! `GOLDEN_UPDATE=1` to regenerate the golden after an intentional
//! protocol change.
//!
//! The same two files pin the framing without a server: every golden line
//! parses and renders back byte for byte, and no cut of any line makes a
//! parser panic or answer anything but a typed `bad_request`.

use oblisched_suite::server::load::replay_transcript;
use oblisched_suite::server::{
    parse_request, parse_response, render_response, send_shutdown, Server, ServerConfig, WireError,
    WireErrorKind,
};
use std::path::PathBuf;

fn example_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/server")
        .join(name)
}

fn read_example(name: &str) -> String {
    std::fs::read_to_string(example_path(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

#[test]
fn golden_responses_round_trip_byte_for_byte() {
    let golden = read_example("smoke.golden.jsonl");
    for line in golden.lines() {
        let response = parse_response(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(render_response(&response), line);
    }
}

/// Every proper prefix and every single-byte deletion of `line`, skipping
/// the cuts that would split a UTF-8 character.
fn cuts(line: &str) -> Vec<String> {
    let mut cuts = Vec::new();
    for i in 0..line.len() {
        if line.is_char_boundary(i) {
            cuts.push(line[..i].to_owned());
            if line.is_char_boundary(i + 1) {
                cuts.push(format!("{}{}", &line[..i], &line[i + 1..]));
            }
        }
    }
    cuts
}

#[test]
fn cut_lines_parse_or_fail_as_typed_bad_requests() {
    // Parse only, never dispatch: a cut can turn a small `n` into a huge
    // solve.
    fn check<T>(file: &str, parse: fn(&str) -> Result<T, WireError>) -> usize {
        let mut refused = 0;
        for line in read_example(file).lines() {
            for cut in cuts(line) {
                if let Err(e) = parse(&cut) {
                    assert_eq!(e.kind, WireErrorKind::BadRequest, "{file}: {cut}");
                    refused += 1;
                }
            }
        }
        refused
    }
    assert!(check("smoke.jsonl", parse_request) > 0);
    assert!(check("smoke.golden.jsonl", parse_response) > 0);
}

#[test]
fn wire_transcript_matches_the_committed_golden() {
    let data_dir = std::env::temp_dir().join(format!(
        "oblisched-server-wire-golden-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.clone(),
        clock: None,
    })
    .expect("bind in-process server");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let transcript =
        std::fs::read_to_string(example_path("smoke.jsonl")).expect("read smoke.jsonl");
    let responses = replay_transcript(&addr, &transcript).expect("replay transcript");
    let actual = responses.join("\n") + "\n";

    send_shutdown(&addr).expect("shutdown");
    daemon.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&data_dir);

    let golden = example_path("smoke.golden.jsonl");
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&golden, &actual).expect("write golden");
        eprintln!("golden transcript rewritten at {}", golden.display());
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden transcript {} ({e}); run with GOLDEN_UPDATE=1 to create it",
            golden.display()
        )
    });
    let actual_lines: Vec<&str> = actual.lines().collect();
    let expected_lines: Vec<&str> = expected.lines().map(|l| l.trim_end_matches('\r')).collect();
    for (i, (a, e)) in actual_lines.iter().zip(expected_lines.iter()).enumerate() {
        assert_eq!(
            a,
            e,
            "wire golden mismatch at response {} (set GOLDEN_UPDATE=1 only for intentional changes)",
            i + 1
        );
    }
    assert_eq!(
        actual_lines.len(),
        expected_lines.len(),
        "wire golden response count changed (set GOLDEN_UPDATE=1 only for intentional changes)"
    );
}
