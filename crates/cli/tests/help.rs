//! `--help` is a request, not an error, wherever it appears: the usage
//! goes to stdout and the exit code is 0. A bare `ktg` or an unknown
//! command is a usage error: the same usage text follows the error on
//! stderr, exit code 2.

use std::process::{Command, Output};

fn ktg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ktg")).args(args).output().expect("run ktg")
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    let help = ktg(&["--help"]);
    assert_eq!(help.status.code(), Some(0), "{}", String::from_utf8_lossy(&help.stderr));
    assert!(help.stderr.is_empty());
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    assert!(usage.starts_with("usage: ktg <generate|"), "{usage}");
    for args in [&["-h"][..], &["serve", "--connect", "127.0.0.1:9", "--help"][..]] {
        let out = ktg(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), usage, "{args:?}");
    }

    for args in [&[][..], &["--bogus"][..], &["help"][..]] {
        let out = ktg(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(stderr.starts_with("error: invalid input: "), "{args:?}: {stderr}");
        assert!(stderr.ends_with(&usage), "{args:?}: usage missing from {stderr}");
    }
}
