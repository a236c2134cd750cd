//! End-to-end tests of the `tinydep` command-line driver.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn tinydep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tinydep"))
}

#[test]
fn analyzes_a_corpus_program() {
    let out = tinydep()
        .arg("corpus:example3")
        .output()
        .expect("tinydep runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(0,1)"), "refined vector expected:\n{stdout}");
    assert!(stdout.contains("[ r]"), "{stdout}");
}

#[test]
fn standard_mode_reports_unrefined() {
    let out = tinydep()
        .args(["--standard", "corpus:example3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(0+,1)"), "{stdout}");
    assert!(!stdout.contains("dead flow"), "{stdout}");
}

#[test]
fn reads_from_stdin() {
    let mut child = tinydep()
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"sym n; for i := 2 to n do a(i) := a(i-1); endfor")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("A(I)"), "{stdout}");
    assert!(stdout.contains("(1)"), "{stdout}");
}

#[test]
fn parallel_report() {
    let out = tinydep()
        .args(["--parallel", "corpus:matmul"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("loop parallelism"), "{stdout}");
    assert!(stdout.contains("PARALLEL"), "{stdout}");
    assert!(stdout.contains("sequential"), "{stdout}");
}

#[test]
fn parse_errors_are_reported_with_position() {
    let mut child = tinydep()
        .arg("-")
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"for i := 1 to n do a(i) := 0;")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("endfor"), "{stderr}");
}

#[test]
fn unknown_corpus_program_fails_cleanly() {
    let out = tinydep().arg("corpus:nope").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no corpus program"), "{stderr}");
}

#[test]
fn list_corpus() {
    let out = tinydep().arg("--list-corpus").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.lines().count() >= 25);
    assert!(stdout.contains("cholsky"), "{stdout}");
}

#[test]
fn all_flag_prints_storage_dependences() {
    let out = tinydep()
        .args(["--all", "corpus:seidel"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("anti dependences"), "{stdout}");
    assert!(stdout.contains("output dependences"), "{stdout}");
}

#[test]
fn fortran_flag_accepts_figure_2() {
    let mut child = tinydep()
        .args(["--fortran", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(tiny::corpus::CHOLSKY_F77.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("dead flow dependences"), "{stdout}");
    assert!(stdout.contains("EPSS(L)"), "{stdout}");
}

#[test]
fn dot_output_is_valid_digraph() {
    let out = tinydep().args(["--dot", "corpus:example2"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("digraph dependences {"), "{stdout}");
    assert!(stdout.contains("dashed"), "dead edges shown:\n{stdout}");
    assert!(stdout.trim_end().ends_with('}'), "{stdout}");
}

#[test]
fn signs_prints_direction_vector_sets() {
    let out = tinydep().args(["--signs", "corpus:example6"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("{(+,+)}"), "coupled distances:\n{stdout}");
}

#[test]
fn json_output_parses_mentally() {
    let out = tinydep().args(["--json", "corpus:example1"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"flows\""), "{stdout}");
    assert!(stdout.contains("\"status\": \"dead\""), "{stdout}");
    assert!(stdout.contains("\"srcAccess\": \"a(n)\""), "{stdout}");
}

#[test]
fn help_lists_every_accepted_option() {
    let out = tinydep().arg("--help").output().unwrap();
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    let words: Vec<&str> = help.split([' ', ',', '\n']).collect();
    // The options `parse_args` matches on: its string literals that are a
    // single dash-led word (`"--all"`, `"-h"`, `"--threads="`, ...).
    let src = include_str!("../src/bin/tinydep.rs");
    let body = &src[src.find("fn parse_args").unwrap()..];
    let body = &body[..body.find("\n}\n").unwrap()];
    let options: std::collections::BTreeSet<&str> = body
        .split('"')
        .skip(1)
        .step_by(2)
        .filter(|s| s.starts_with('-') && *s != "--" && !s.contains(' '))
        .collect();
    assert!(options.len() >= 19, "found only {options:?}");
    for opt in options {
        let listed = if opt.ends_with('=') {
            words.iter().any(|w| w.starts_with(opt))
        } else {
            words.contains(&opt)
        };
        assert!(listed, "--help does not list {opt}:\n{help}");
    }
}

#[test]
fn removed_options_are_rejected() {
    let out = tinydep()
        .args(["--no-base-checkpoint", "corpus:example3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown option --no-base-checkpoint"), "{stderr}");
}

#[test]
fn stats_report_the_fallback_and_name_give_ups() {
    let out = tinydep()
        .args(["--stats", "corpus:red_black"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("branches explored, 2 give-ups (kept conservative)"),
        "{stderr}"
    );
    let out = tinydep()
        .args(["--stats", "corpus:odd_even", "corpus:red_black", "corpus:example1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("3 give-ups (kept conservative)"), "{stderr}");
    assert!(
        stderr.contains("fallback give-ups by program: corpus:odd_even 1, corpus:red_black 2"),
        "{stderr}"
    );
}
