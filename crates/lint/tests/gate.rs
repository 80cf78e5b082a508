//! The gate as the shipped binary runs it: on a workspace with one
//! finding every scanning mode exits 1, on a clean one the scan exits 0,
//! and `--update-baseline`/`--list`, which belonged to a retired
//! baseline of tolerated findings, are unknown arguments (exit 2).

use std::path::Path;
use std::process::{Command, Output};

fn ktg_lint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ktg-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run ktg-lint")
}

#[test]
fn any_finding_fails_the_gate() {
    let root = std::env::temp_dir().join(format!("ktg-lint-gate-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&root));
    std::fs::create_dir_all(root.join("crates/demo/src")).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/demo\"]\n").unwrap();
    std::fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\nversion = \"0.1.0\"\n",
    )
    .unwrap();
    let lib = root.join("crates/demo/src/lib.rs");
    let source = "//! Demo crate.\n\n#![forbid(unsafe_code)]\n\n\
                  pub fn first(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    std::fs::write(&lib, source).unwrap();

    let plain = ktg_lint(&root, &[]);
    let stderr = String::from_utf8_lossy(&plain.stderr);
    assert_eq!(plain.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("crates/demo/src/lib.rs:6: [L2 panic-in-lib]"), "{stderr}");

    let json = ktg_lint(&root, &["--json"]);
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert_eq!(json.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("\"pass\": false"), "{stdout}");
    assert!(stdout.contains("\"totals\": {\"L2\": 1}"), "{stdout}");

    for retired in ["--update-baseline", "--list"] {
        let out = ktg_lint(&root, &[retired]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{retired}: {stderr}");
        assert!(stderr.contains(&format!("unknown argument `{retired}`")), "{stderr}");
    }

    std::fs::write(&lib, source.replace("x.unwrap()", "x.unwrap_or(0)")).unwrap();
    let clean = ktg_lint(&root, &[]);
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));

    std::fs::remove_dir_all(&root).unwrap();
}
