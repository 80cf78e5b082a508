//! # `ktg-lint`
//!
//! The KTG workspace's in-tree static analysis pass. A zero-dependency
//! binary (and library, for self-tests) that enforces the project
//! invariants the compiler cannot:
//!
//! * **L1 registry-dep** — the workspace builds fully offline; no
//!   manifest may reference a registry dependency (absorbs the old
//!   inline-python gate from `tools/ci.sh`).
//! * **L2 panic-in-lib** — library code must surface failures as
//!   [`KtgError`](https://docs.rs/) results, not `unwrap`/`expect`/`panic!`.
//! * **L3 default-hasher** — hash containers must use the `ktg-common`
//!   Fx aliases, not SipHash defaults.
//! * **L4 nondeterminism** — wall-clock reads are confined to
//!   `ktg-bench`, `ktg_common::parallel` and `ktg_common::cancel`;
//!   everything else must be a deterministic function of its inputs —
//!   and the call graph makes the check transitive.
//! * **L5 lib-header** — every crate root carries a `//!` doc header and
//!   `#![forbid(unsafe_code)]`.
//! * **L6 untagged-todo** — to-do/fix-me comments carry issue tags,
//!   e.g. `TODO(#42)`.
//! * **L7 lock-discipline** — locks are acquired in the fixed tier
//!   order (session → cache-shard → wal), never inside
//!   `catch_unwind`.
//! * **L8 atomic-ordering** — every atomic `Ordering::` use matches the
//!   committed per-site allowlist (`tools/atomics-allowlist.txt`).
//! * **L9 fault-placement** — fault-injection sites precede the
//!   shared-state writes they make recoverable.
//! * **L10 cancel-threading** — every public solve entry point accepts
//!   or forwards a `CancelToken`.
//!
//! Rust sources are analyzed through a hand-rolled lexer ([`lexer`]) so
//! string literals, comments and `#[cfg(test)]` modules are classified
//! correctly — the failure mode that makes `grep`-based gates flaky.
//! The concurrency lints sit on a lightweight syntactic layer: an
//! item/block parser ([`parser`]), a per-block scope model for lock
//! guards ([`scopes`]), and a workspace call graph ([`callgraph`]).
//!
//! The pass fails on any finding; there is no baseline of tolerated
//! violations. See `DESIGN.md` §10 for the gate and §16 for the
//! workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod scopes;
pub mod walk;

pub use lints::manifest::check as check_manifest;
pub use lints::{analyze, check_rust_source, Finding, Lint, SourceFile};

use std::io;
use std::path::Path;

/// The committed atomic-ordering allowlist (L8), relative to the
/// workspace root.
pub const ATOMICS_PATH: &str = "tools/atomics-allowlist.txt";

/// Reads every Rust source and manifest under `root` into the in-memory
/// view [`lints::analyze`] operates on.
pub fn load_workspace(root: &Path) -> io::Result<(Vec<SourceFile>, Vec<SourceFile>)> {
    let files = walk::discover(root)?;
    let read = |rels: &[String]| -> io::Result<Vec<SourceFile>> {
        rels.iter()
            .map(|rel| {
                Ok(SourceFile { path: rel.clone(), text: std::fs::read_to_string(root.join(rel))? })
            })
            .collect()
    };
    Ok((read(&files.rust_sources)?, read(&files.manifests)?))
}

/// Loads the committed atomics allowlist; a missing file is an empty
/// allowlist (every ordering then fails L8 until one is generated).
pub fn load_atomics_allowlist(root: &Path) -> Result<lints::atomics::Allowlist, String> {
    match std::fs::read_to_string(root.join(ATOMICS_PATH)) {
        Ok(text) => lints::atomics::Allowlist::parse(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(lints::atomics::Allowlist::default()),
        Err(e) => Err(format!("{ATOMICS_PATH}: {e}")),
    }
}

/// The allowlist covering exactly the workspace's current atomic
/// `Ordering::` sites: what `ktg-lint --update-atomics` writes.
pub fn collect_atomics_allowlist(root: &Path) -> io::Result<lints::atomics::Allowlist> {
    let (sources, _) = load_workspace(root)?;
    let paths: Vec<String> = sources.iter().map(|s| s.path.clone()).collect();
    let asts: Vec<_> = sources.iter().map(|s| parser::parse(&s.text)).collect();
    Ok(lints::atomics::Allowlist::collect(&paths, &asts))
}

/// Lints every Rust source and manifest under `root`, returning all
/// findings sorted by path and line.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let (sources, manifests) = load_workspace(root)?;
    let atomics = load_atomics_allowlist(root).map_err(io::Error::other)?;
    Ok(lints::analyze(&sources, &manifests, &atomics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate, enforced from `cargo test` as well as from CI: any
    /// finding in the workspace fails the lint crate's own test suite.
    #[test]
    fn workspace_has_no_findings() {
        let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let findings = scan_workspace(&root).expect("workspace scan");
        assert!(
            findings.is_empty(),
            "ktg-lint findings:\n{}",
            findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }

    /// L8 tolerates stale and over-counted allowlist entries, and each
    /// one pre-approves a later ordering at its site without review; so
    /// the committed file must be exactly its regeneration.
    #[test]
    fn atomics_allowlist_equals_its_regeneration() {
        let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let committed =
            std::fs::read_to_string(root.join(ATOMICS_PATH)).expect("committed allowlist");
        let current = collect_atomics_allowlist(&root).expect("workspace scan").render();
        assert_eq!(
            committed, current,
            "{ATOMICS_PATH} is stale: regenerate it with `ktg-lint --update-atomics`"
        );
    }
}
