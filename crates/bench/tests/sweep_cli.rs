//! Argument contract of the `sweep` binary: CI shell-scripts it, so
//! point selection and exit codes must be exact — 0 on success and for
//! `--help`, 2 on any usage error. Every case here stops before a
//! simulation runs (`--list`, or a rejected command line).

use std::process::{Command, Output};

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");

fn sweep(args: &[&str]) -> Output {
    Command::new(SWEEP)
        .args(args)
        .output()
        .expect("binary spawns")
}

fn listed(args: &[&str]) -> Vec<String> {
    let out = sweep(args);
    assert!(
        out.status.success(),
        "{args:?}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| line.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn scale_filter_selects_exactly_one_point() {
    assert_eq!(listed(&["scale", "--list"]), ["m10", "m100", "m1000"]);
    assert_eq!(listed(&["scale", "--list", "--filter", "m100"]), ["m100"]);
}

#[test]
fn filters_match_exact_point_names() {
    let points = listed(&["overload", "--list", "--filter", "flash_crowd/PBPL"]);
    assert_eq!(
        points,
        ["flash_crowd/PBPL"],
        "PBPL(overload) is not selected"
    );
    let points = listed(&[
        "overload",
        "--list",
        "--filter",
        "flash_crowd/PBPL(overload)",
        "--filter",
        "flash_crowd@m100/PBPL(overload)",
    ]);
    assert_eq!(
        points,
        [
            "flash_crowd/PBPL(overload)",
            "flash_crowd@m100/PBPL(overload)"
        ]
    );
    // Suite points are its experiment names.
    let points = listed(&["suite", "--list", "--filter", "fig09_five_consumers"]);
    assert_eq!(points, ["fig09_five_consumers"]);
    assert_eq!(listed(&["chaos", "--list"]).len(), 8 * 5);
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["nope"][..],
        &["suite", "--frobnicate"],
        &["suite", "--list", "--filter", "fig09"],
        &[
            "chaos",
            "--list",
            "--filter",
            "baseline/BP",
            "--filter",
            "nope",
        ],
        &["overload", "--list", "--shards", "3"],
        &["scale", "--list", "--shards", "0"],
        &["scale", "--list", "--threads"],
        &["suite", "chaos"],
        &[],
    ] {
        let out = sweep(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn shards_are_accepted_by_scale() {
    assert_eq!(listed(&["scale", "--list", "--shards", "3"]).len(), 3);
}

#[test]
fn help_exits_zero_and_names_every_sweep() {
    let out = sweep(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    for name in ["suite", "chaos", "scale", "overload"] {
        assert!(help.contains(&format!("  {name} ")), "{name}:\n{help}");
    }
}
