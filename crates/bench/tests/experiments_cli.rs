//! The `experiments` binary's exit status: an argument error exits 2 with
//! the usage on stderr, and `--help` exits 0.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("binary runs")
}

#[test]
fn argument_errors_exit_2_with_the_usage() {
    let cases: [&[&str]; 7] = [
        &["table2", "--scale", "5"],
        &["table2", "--scale"],
        &["table2", "--mc", "0"],
        &["table2", "--p", "2"],
        &["table2", "--no-such-flag"],
        &[],
        &["no-such-experiment", "--scale", "0.01"],
    ];
    for args in cases {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments <name>"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_exits_0_and_lists_every_option() {
    for flag in ["--help", "-h"] {
        let out = experiments(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for option in ["--scale", "--mc", "--seed", "--p"] {
            assert!(stderr.contains(option), "{flag}: usage lacks {option}: {stderr}");
        }
    }
}
