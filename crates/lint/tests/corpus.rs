//! Fixture-corpus test: every lint L1–L10 has a bad/good pair under
//! `tests/fixtures/`. The bad file must fire *exactly* its lint (no
//! bycatch from the other passes), the good file must be clean. The
//! fixtures double as living documentation of each rule — `walk`
//! skips the `fixtures/` directory, so they never leak into the real
//! workspace scan.

use ktg_lint::lints::atomics::Allowlist;
use ktg_lint::{analyze, parser, Lint, SourceFile};
use std::collections::BTreeSet;
use std::path::Path;

/// One lint's fixture pair: its id, the fixture directory, and the
/// synthetic workspace-relative path that puts the file in the right
/// lint scope (lib code, crate root, or solver entry file).
const CASES: [(&str, &str, &str); 10] = [
    ("L1", "l1", "crates/demo/Cargo.toml"),
    ("L2", "l2", "crates/demo/src/fixture.rs"),
    ("L3", "l3", "crates/demo/src/fixture.rs"),
    ("L4", "l4", "crates/demo/src/fixture.rs"),
    ("L5", "l5", "crates/demo/src/lib.rs"),
    ("L6", "l6", "crates/demo/src/fixture.rs"),
    ("L7", "l7", "crates/demo/src/fixture.rs"),
    ("L8", "l8", "crates/demo/src/fixture.rs"),
    ("L9", "l9", "crates/demo/src/fixture.rs"),
    ("L10", "l10", "crates/core/src/bb_fixture.rs"),
];

fn read_fixture(dir: &str, file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(dir).join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Runs the full analyzer over one fixture file. Rust fixtures go in as
/// sources, the L1 manifest fixture as a manifest. `allow` covers the
/// L8 good fixture; everything else runs against an empty allowlist.
fn run(lint: Lint, relpath: &str, text: String, allow: &Allowlist) -> Vec<ktg_lint::Finding> {
    let file = SourceFile { path: relpath.to_string(), text };
    if lint == Lint::RegistryDep {
        analyze(&[], &[file], allow)
    } else {
        analyze(&[file], &[], allow)
    }
}

#[test]
fn every_lint_has_a_fixture_case() {
    let covered: BTreeSet<&str> = CASES.iter().map(|(id, _, _)| *id).collect();
    for lint in ktg_lint::lints::ALL_LINTS {
        assert!(covered.contains(lint.id()), "no fixture case for {}", lint.id());
    }
    assert_eq!(covered.len(), ktg_lint::lints::ALL_LINTS.len());
}

#[test]
fn bad_fixtures_fire_exactly_their_lint() {
    for (id, dir, relpath) in CASES {
        let lint = Lint::from_id(id).expect("known lint id");
        let file = if lint == Lint::RegistryDep { "bad.toml" } else { "bad.rs" };
        let findings = run(lint, relpath, read_fixture(dir, file), &Allowlist::default());
        assert!(!findings.is_empty(), "{dir}/{file} fired nothing");
        let fired: BTreeSet<Lint> = findings.iter().map(|f| f.lint).collect();
        assert_eq!(
            fired,
            BTreeSet::from([lint]),
            "{dir}/{file} must fire exactly {id}: {findings:#?}"
        );
        for f in &findings {
            assert_eq!(f.path, relpath);
            assert!(f.line > 0, "{dir}/{file}: finding without a line: {f}");
            assert!(!f.snippet.is_empty(), "{dir}/{file}: finding without a snippet: {f}");
        }
    }
}

#[test]
fn good_fixtures_are_clean() {
    for (id, dir, relpath) in CASES {
        let lint = Lint::from_id(id).expect("known lint id");
        let file = if lint == Lint::RegistryDep { "good.toml" } else { "good.rs" };
        let text = read_fixture(dir, file);
        // The L8 good fixture demonstrates allowlist coverage: the same
        // audited site passes once the committed allowlist names it.
        let allow = if lint == Lint::AtomicOrdering {
            let paths = vec![relpath.to_string()];
            let asts = vec![parser::parse(&text)];
            Allowlist::collect(&paths, &asts)
        } else {
            Allowlist::default()
        };
        let findings = run(lint, relpath, text, &allow);
        assert!(findings.is_empty(), "{dir}/{file} must be clean: {findings:#?}");
    }
}
