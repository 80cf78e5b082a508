//! The ten workspace lints.
//!
//! Each lint reports [`Finding`]s against a *relative* path (workspace
//! root = `""`), so results are stable across machines. All Rust-source
//! lints run on the token stream of [`crate::lexer`] — never on raw
//! text — so string literals, doc comments and `#[cfg(test)]` modules
//! are classified correctly. The concurrency lints additionally use the
//! item parser ([`crate::parser`]), the scope model ([`crate::scopes`])
//! and the workspace call graph ([`crate::callgraph`]).
//!
//! | id  | name             | scope                         | rule |
//! |-----|------------------|-------------------------------|------|
//! | L1  | registry-dep     | every `Cargo.toml`            | dependencies must be `path`/`workspace` entries |
//! | L2  | panic-in-lib     | `crates/*/src` minus bins     | no `.unwrap()` / `.expect(` / `panic!` |
//! | L3  | default-hasher   | `crates/*/src` minus bins     | no `std::collections::{HashMap,HashSet}` without explicit hasher |
//! | L4  | nondeterminism   | lib code minus bench/parallel | no `Instant::now` / `SystemTime::now`, directly **or via calls** |
//! | L5  | lib-header       | every `src/lib.rs`            | starts with `//!` docs and declares `#![forbid(unsafe_code)]` |
//! | L6  | untagged-todo    | every `.rs` file              | to-do comments carry an issue tag, e.g. `TODO(#42)` |
//! | L7  | lock-discipline  | library code                  | locks acquired in tier order (session → cache shard → WAL); none inside `catch_unwind` |
//! | L8  | atomic-ordering  | library code                  | every atomic `Ordering::` use matches `tools/atomics-allowlist.txt` |
//! | L9  | fault-placement  | library code                  | `fault::inject`/`fault::recoverable` precede shared-state writes in their block |
//! | L10 | cancel-threading | `bb` / `dktg` / `serve`       | every `pub fn` solve entry point accepts or forwards a `CancelToken` |
//!
//! `#[cfg(test)]` items are exempt from L2–L4 and L7–L9: test code may
//! unwrap, time things, and lock in whatever order reproduces a bug.

pub mod atomics;
pub mod cancel;
pub mod clock;
pub mod faults;
pub mod hasher;
pub mod header;
pub mod locks;
pub mod manifest;
pub mod panics;
pub mod todo;

use crate::callgraph::CallGraph;
use crate::lexer::{self, Token};
use crate::parser::{self, Ast};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one of the ten lints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// L1: registry (non-path) dependency in a manifest.
    RegistryDep,
    /// L2: `unwrap`/`expect`/`panic!` in library code.
    PanicInLib,
    /// L3: default-hasher std `HashMap`/`HashSet` in library code.
    DefaultHasher,
    /// L4: wall-clock nondeterminism outside the sanctioned modules,
    /// direct or reached through the call graph.
    Nondeterminism,
    /// L5: `lib.rs` missing its doc header or `#![forbid(unsafe_code)]`.
    LibHeader,
    /// L6: to-do/fix-me comment without an issue tag.
    UntaggedTodo,
    /// L7: lock acquired against the fixed tier order, or inside a
    /// `catch_unwind` closure.
    LockDiscipline,
    /// L8: atomic memory ordering not covered by the committed
    /// per-site allowlist.
    AtomicOrdering,
    /// L9: fault-injection site placed after a shared-state write in
    /// its enclosing block.
    FaultPlacement,
    /// L10: solve entry point that neither accepts nor forwards a
    /// `CancelToken`.
    CancelThreading,
}

/// Every lint, in id order — the registry `--explain` looks ids up in.
pub const ALL_LINTS: [Lint; 10] = [
    Lint::RegistryDep,
    Lint::PanicInLib,
    Lint::DefaultHasher,
    Lint::Nondeterminism,
    Lint::LibHeader,
    Lint::UntaggedTodo,
    Lint::LockDiscipline,
    Lint::AtomicOrdering,
    Lint::FaultPlacement,
    Lint::CancelThreading,
];

impl Lint {
    /// Stable short id used in output and by `--explain`.
    pub fn id(self) -> &'static str {
        match self {
            Lint::RegistryDep => "L1",
            Lint::PanicInLib => "L2",
            Lint::DefaultHasher => "L3",
            Lint::Nondeterminism => "L4",
            Lint::LibHeader => "L5",
            Lint::UntaggedTodo => "L6",
            Lint::LockDiscipline => "L7",
            Lint::AtomicOrdering => "L8",
            Lint::FaultPlacement => "L9",
            Lint::CancelThreading => "L10",
        }
    }

    /// Parses an id (`L7`) back into a lint.
    pub fn from_id(id: &str) -> Option<Lint> {
        ALL_LINTS.into_iter().find(|l| l.id() == id)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::RegistryDep => "registry-dep",
            Lint::PanicInLib => "panic-in-lib",
            Lint::DefaultHasher => "default-hasher",
            Lint::Nondeterminism => "nondeterminism",
            Lint::LibHeader => "lib-header",
            Lint::UntaggedTodo => "untagged-todo",
            Lint::LockDiscipline => "lock-discipline",
            Lint::AtomicOrdering => "atomic-ordering",
            Lint::FaultPlacement => "fault-placement",
            Lint::CancelThreading => "cancel-threading",
        }
    }

    /// The rule and its rationale, printed by `ktg-lint --explain`.
    pub fn explain(self) -> &'static str {
        match self {
            Lint::RegistryDep => {
                "Every dependency in every Cargo.toml must be a `path`/`workspace` \
                 reference to a sibling crate, and the historically removed registry \
                 crates (crossbeam, parking_lot, rand, proptest, criterion) must not \
                 reappear under any spelling.\n\nWhy: the workspace builds fully \
                 offline; the in-tree substrate (ktg_common::rng/::parallel, \
                 ktg_bench::harness) replaces them."
            }
            Lint::PanicInLib => {
                "Library code must not call `.unwrap()`, `.expect(…)` or `panic!`; \
                 surface failures as `KtgError` results or restructure so the failure \
                 is impossible.\n\nWhy: the serving stack isolates per-item panics \
                 with catch_unwind, but a panic that never happens is cheaper than \
                 one that is absorbed — and a Result forces the caller to decide."
            }
            Lint::DefaultHasher => {
                "std `HashMap`/`HashSet` with the default SipHash hasher are banned \
                 in library code; use the `ktg_common::FxHashMap`/`FxHashSet` \
                 aliases.\n\nWhy: hashing sits on hot paths (keyword masks, memo \
                 keys); Fx is several times faster and deterministic across runs."
            }
            Lint::Nondeterminism => {
                "Library code outside `ktg-bench`, `ktg_common::parallel` and \
                 `ktg_common::cancel` must not read the wall clock — neither a \
                 literal `Instant::now()`/`SystemTime::now()` nor a call chain that \
                 reaches one (the call-graph makes this transitive).\n\nWhy: every \
                 answer must be byte-identical across threads, caches and faults; \
                 deadlines flow through `CancelToken` (cancel.rs), whose \
                 nondeterminism is openly tagged `Degraded`."
            }
            Lint::LibHeader => {
                "Every crate root (`src/lib.rs`) must start with `//!` module docs \
                 and declare `#![forbid(unsafe_code)]`.\n\nWhy: the workspace's \
                 exactness story depends on safe Rust; the doc header keeps each \
                 crate's role discoverable."
            }
            Lint::UntaggedTodo => {
                "To-do/fix-me comments must carry an issue tag: `TODO(#42): …`.\n\n\
                 Why: untracked debt disappears; a tag makes every deferral \
                 auditable."
            }
            Lint::LockDiscipline => {
                "Locks must be acquired in the fixed tier order — session RwLock \
                 (tier 0) before cache-shard Mutex (tier 1) before the WAL Mutex \
                 (tier 2). Acquiring an earlier tier while a later-tier guard is \
                 live is flagged, as is any lock acquisition written directly \
                 inside a `catch_unwind` closure.\n\nWhy: a fixed global order makes \
                 deadlock impossible by construction, and a poisoned-while-panicking \
                 lock inside the isolation boundary would turn one bad query into a \
                 stuck server. Tiers are classified syntactically from receiver \
                 identifiers (session / shard·cache·expanded / the word wal)."
            }
            Lint::AtomicOrdering => {
                "Every atomic `Ordering::` use in library code must match a \
                 committed per-site entry in tools/atomics-allowlist.txt \
                 (`<path> <fn> <method> <ordering>`); regenerate with \
                 `ktg-lint --update-atomics` after review.\n\nWhy: orderings are \
                 chosen once, under review — e.g. `SharedThreshold::fetch_max` \
                 is AcqRel so a pruning floor published by one worker is seen by \
                 all. A silent weakening to Relaxed would be a correctness bug \
                 no test reliably catches; this lint turns it into a diff."
            }
            Lint::FaultPlacement => {
                "`fault::inject(…)` / `fault::recoverable(…)` calls must precede \
                 any write through a lock guard or `self` field in their enclosing \
                 block.\n\nWhy: the fault registry's recovery is byte-identical \
                 only because a fault can fire before shared state mutates — a \
                 site placed after a write would make recovery observe (and \
                 retry on top of) a half-applied mutation."
            }
            Lint::CancelThreading => {
                "Every `pub fn` solve entry point in `ktg_core::bb`, \
                 `ktg_core::dktg` and `ktg_core::serve` (a public function whose \
                 return type carries an `…Outcome`) must accept a `CancelToken` \
                 or (transitively) call code that polls one.\n\nWhy: bounded \
                 latency is a serving invariant; an entry point outside the \
                 cancellation web would hang a drain/shutdown on one \
                 pathological query."
            }
        }
    }
}

/// One lint violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: u32,
    /// What was found and what to do instead.
    pub message: String,
    /// The normalized source line (filled by [`analyze`]; empty for
    /// file-level findings).
    pub snippet: String,
}

impl Finding {
    /// A finding with its snippet not yet attached.
    pub fn new(lint: Lint, path: &str, line: u32, message: String) -> Finding {
        Finding { lint, path: path.to_string(), line, message, snippet: String::new() }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.path,
            self.line,
            self.lint.id(),
            self.lint.name(),
            self.message
        )
    }
}

/// How the path-based scoping classifies a Rust file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileScope {
    /// Library code: under `crates/*/src`, not a `src/bin` target.
    /// L2, L3 and L7–L9 apply here.
    pub lib_code: bool,
    /// L4 applies: lib code outside `crates/bench`,
    /// `crates/common/src/parallel.rs`, and
    /// `crates/common/src/cancel.rs` (the one module allowed to read
    /// the wall clock — every deadline in the workspace flows through
    /// its token, so confining clock reads there keeps the rest of the
    /// tree deterministic by construction).
    pub deterministic: bool,
    /// L5 applies: the file is a crate root `src/lib.rs`.
    pub lib_root: bool,
}

/// Classifies a workspace-relative path (always `/`-separated).
pub fn scope_of(relpath: &str) -> FileScope {
    let lib_code = relpath.starts_with("crates/")
        && relpath.contains("/src/")
        && !relpath.contains("/src/bin/")
        && !relpath.contains("/benches/")
        && !relpath.contains("/tests/");
    let deterministic = lib_code
        && !relpath.starts_with("crates/bench/")
        && relpath != "crates/common/src/parallel.rs"
        && relpath != "crates/common/src/cancel.rs";
    let lib_root = relpath.ends_with("src/lib.rs");
    FileScope { lib_code, deterministic, lib_root }
}

/// One source file handed to [`analyze`].
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// Runs the token-level source lints (L2–L6) over one Rust file.
///
/// The syntactic passes (L7–L9) and the workspace passes (transitive
/// L4, L10) run from [`analyze`], which sees every file at once.
pub fn check_rust_source(relpath: &str, source: &str) -> Vec<Finding> {
    let scope = scope_of(relpath);
    let all_tokens = lexer::tokenize(source);
    let code: Vec<Token<'_>> = all_tokens.iter().copied().filter(|t| !t.is_comment()).collect();
    let in_test = parser::cfg_test_mask(&code);

    let mut findings = Vec::new();
    if scope.lib_code {
        panics::lint(relpath, &code, &in_test, &mut findings);
        hasher::lint(relpath, &code, &in_test, &mut findings);
    }
    if scope.deterministic {
        clock::lint_literal(relpath, &code, &in_test, &mut findings);
    }
    if scope.lib_root {
        header::lint(relpath, &all_tokens, &code, &mut findings);
    }
    todo::lint(relpath, &all_tokens, &mut findings);
    findings.sort_by_key(|a| (a.line, a.lint));
    findings
}

/// Runs every lint over a whole workspace view: the token passes per
/// file, the syntactic concurrency passes per library file, and the
/// call-graph passes across all of them; then attaches snippets. This
/// is the one entry point both `scan_workspace` and the fixture-corpus
/// tests use.
pub fn analyze(
    sources: &[SourceFile],
    manifests: &[SourceFile],
    atomics_allowlist: &atomics::Allowlist,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut paths: Vec<String> = Vec::with_capacity(sources.len());
    let mut asts: Vec<Ast<'_>> = Vec::with_capacity(sources.len());
    for sf in sources {
        findings.extend(check_rust_source(&sf.path, &sf.text));
        paths.push(sf.path.clone());
        asts.push(parser::parse(&sf.text));
    }
    for (i, sf) in sources.iter().enumerate() {
        if scope_of(&sf.path).lib_code {
            locks::lint(&sf.path, &asts[i], &mut findings);
            atomics::lint(&sf.path, &asts[i], atomics_allowlist, &mut findings);
            faults::lint(&sf.path, &asts[i], &mut findings);
        }
    }
    let graph = CallGraph::build(&paths, &asts);
    clock::lint_transitive(&paths, &asts, &graph, &mut findings);
    cancel::lint(&paths, &asts, &graph, &mut findings);

    for mf in manifests {
        findings.extend(manifest::check(&mf.path, &mf.text));
    }

    let text_of: BTreeMap<&str, &str> = sources
        .iter()
        .chain(manifests.iter())
        .map(|sf| (sf.path.as_str(), sf.text.as_str()))
        .collect();
    for f in &mut findings {
        f.snippet = text_of
            .get(f.path.as_str())
            .and_then(|text| snippet_at(text, f.line))
            .unwrap_or_default();
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    findings
}

/// The normalized source line a finding anchors to: trimmed, internal
/// whitespace collapsed, capped at 160 bytes.
pub fn snippet_at(source: &str, line: u32) -> Option<String> {
    if line == 0 {
        return None;
    }
    let raw = source.lines().nth(line as usize - 1)?;
    let mut out = String::with_capacity(raw.len().min(160));
    let mut last_space = true; // leading whitespace drops
    for ch in raw.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(ch);
            last_space = false;
        }
        if out.len() >= 160 {
            break;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    Some(out)
}

/// Whether `code[i..i+2]` is the `::` path separator.
pub(crate) fn path_sep(code: &[Token<'_>], i: usize) -> bool {
    matches!((code.get(i), code.get(i + 1)), (Some(a), Some(b)) if a.text == ":" && b.text == ":")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path classified as library code for the scoped lints.
    const LIB: &str = "crates/demo/src/algo.rs";

    fn lints_in(path: &str, src: &str) -> Vec<Lint> {
        check_rust_source(path, src).into_iter().map(|f| f.lint).collect()
    }

    // ---- scoping -------------------------------------------------------

    #[test]
    fn scope_classification() {
        assert!(scope_of(LIB).lib_code);
        assert!(scope_of(LIB).deterministic);
        assert!(!scope_of(LIB).lib_root);
        assert!(!scope_of("crates/demo/src/bin/main.rs").lib_code);
        assert!(!scope_of("crates/demo/benches/b.rs").lib_code);
        assert!(!scope_of("crates/demo/tests/it.rs").lib_code);
        assert!(!scope_of("examples/src/basic.rs").lib_code);
        assert!(scope_of("crates/bench/src/runner.rs").lib_code);
        assert!(!scope_of("crates/bench/src/runner.rs").deterministic);
        assert!(!scope_of("crates/common/src/parallel.rs").deterministic);
        assert!(!scope_of("crates/common/src/cancel.rs").deterministic);
        assert!(scope_of("crates/common/src/fault.rs").deterministic);
        assert!(scope_of("crates/demo/src/lib.rs").lib_root);
        assert!(scope_of("tests/src/lib.rs").lib_root);
    }

    // ---- L2 panic-in-lib ----------------------------------------------

    #[test]
    fn unwrap_expect_panic_flagged_in_lib() {
        let src = r##"
            pub fn f(x: Option<u32>) -> u32 {
                let a = x.unwrap();
                let b = x.expect("present");
                if a + b > 9 { panic!("overflow"); }
                a
            }
        "##;
        assert_eq!(
            lints_in(LIB, src),
            vec![Lint::PanicInLib, Lint::PanicInLib, Lint::PanicInLib]
        );
    }

    #[test]
    fn unwrap_inside_string_literal_not_flagged() {
        // The case a grep-based gate gets wrong.
        let src = r##"
            pub fn f() -> &'static str {
                let msg = "never call .unwrap() in library code";
                let other = "x.expect( is also banned, as is panic!(…)";
                msg
            }
        "##;
        assert!(lints_in(LIB, src).is_empty(), "{:?}", check_rust_source(LIB, src));
    }

    #[test]
    fn unwrap_inside_comments_not_flagged() {
        let src = r##"
            /// Calls `x.unwrap()` — see the panic! docs.
            // x.expect("no")
            /* block: y.unwrap() */
            pub fn f() {}
        "##;
        assert!(lints_in(LIB, src).is_empty());
    }

    #[test]
    fn unwrap_or_family_not_flagged() {
        let src = r##"
            pub fn f(x: Option<u32>) -> u32 {
                x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()
            }
        "##;
        assert!(lints_in(LIB, src).is_empty());
    }

    #[test]
    fn cfg_test_module_exempt_from_panics() {
        let src = r##"
            pub fn lib_code() {}

            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    Some(1).unwrap();
                    panic!("fine in tests");
                }
            }
        "##;
        assert!(lints_in(LIB, src).is_empty());
    }

    #[test]
    fn cfg_test_mask_ends_with_the_item() {
        // The unwrap AFTER the #[cfg(test)] fn must still fire.
        let src = r##"
            #[cfg(test)]
            fn helper() { Some(1).unwrap(); }

            pub fn real() { Some(2).unwrap(); }
        "##;
        let findings = check_rust_source(LIB, src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn cfg_not_test_items_still_linted() {
        // `#[cfg(not(test))]` is release-only code — the opposite of
        // test-gated. The purely textual mask used to exempt it.
        let src = r##"
            #[cfg(not(test))]
            pub fn release_path() { Some(1).unwrap(); }
        "##;
        assert_eq!(lints_in(LIB, src), vec![Lint::PanicInLib]);
    }

    #[test]
    fn bins_and_benches_exempt_from_panics() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(lints_in("crates/demo/src/bin/main.rs", src).is_empty());
        assert!(lints_in("crates/demo/benches/b.rs", src).is_empty());
        assert!(lints_in("tools/gen.rs", src).is_empty());
    }

    // ---- L3 default-hasher --------------------------------------------

    #[test]
    fn default_hasher_path_form_flagged() {
        let src = r##"
            pub type M = std::collections::HashMap<String, u32>;
            pub type S = std::collections::HashSet<u32>;
        "##;
        assert_eq!(lints_in(LIB, src), vec![Lint::DefaultHasher, Lint::DefaultHasher]);
    }

    #[test]
    fn default_hasher_use_group_flagged() {
        let src = "use std::collections::{BTreeMap, HashMap};";
        let findings = check_rust_source(LIB, src);
        assert_eq!(findings.len(), 1, "BTreeMap is fine: {findings:?}");
        assert_eq!(findings[0].lint, Lint::DefaultHasher);
    }

    #[test]
    fn explicit_hasher_param_allowed() {
        // Exactly how ktg-common defines its Fx aliases.
        let src = r##"
            pub type M = std::collections::HashMap<u32, u32, crate::FxBuildHasher>;
            pub type S = std::collections::HashSet<u32, crate::FxBuildHasher>;
        "##;
        assert!(lints_in(LIB, src).is_empty(), "{:?}", check_rust_source(LIB, src));
    }

    #[test]
    fn tuple_key_without_hasher_flagged() {
        // The comma inside the tuple key fooled the old comma counter
        // into seeing three type parameters.
        let src = "pub type M = std::collections::HashMap<(u32, u32), u32>;";
        assert_eq!(lints_in(LIB, src), vec![Lint::DefaultHasher]);
    }

    #[test]
    fn tuple_key_with_hasher_allowed() {
        let src =
            "pub type M = std::collections::HashMap<(u32, u32), u32, crate::FxBuildHasher>;";
        assert!(lints_in(LIB, src).is_empty(), "{:?}", check_rust_source(LIB, src));
    }

    #[test]
    fn turbofish_without_hasher_flagged() {
        let src = "pub fn f() { let m = std::collections::HashMap::<u32, u32>::new(); let _ = m; }";
        assert_eq!(lints_in(LIB, src), vec![Lint::DefaultHasher]);
    }

    #[test]
    fn fx_aliases_not_flagged() {
        let src = r##"
            use ktg_common::{FxHashMap, FxHashSet};
            pub fn f() { let m: FxHashMap<u32, u32> = FxHashMap::default(); let _ = m; }
        "##;
        assert!(lints_in(LIB, src).is_empty());
    }

    // ---- L4 nondeterminism --------------------------------------------

    #[test]
    fn wall_clock_reads_flagged() {
        let src = r##"
            pub fn f() {
                let t = std::time::Instant::now();
                let s = std::time::SystemTime::now();
                let _ = (t, s);
            }
        "##;
        assert_eq!(lints_in(LIB, src), vec![Lint::Nondeterminism, Lint::Nondeterminism]);
    }

    #[test]
    fn bench_parallel_and_cancel_may_read_the_clock() {
        let src = "pub fn f() { let _ = std::time::Instant::now(); }";
        assert!(lints_in("crates/bench/src/runner.rs", src).is_empty());
        assert!(lints_in("crates/common/src/parallel.rs", src).is_empty());
        assert!(lints_in("crates/common/src/cancel.rs", src).is_empty());
    }

    #[test]
    fn instant_without_now_not_flagged() {
        let src = "pub fn f(t: std::time::Instant) -> std::time::Instant { t }";
        assert!(lints_in(LIB, src).is_empty());
    }

    // ---- L5 lib-header -------------------------------------------------

    #[test]
    fn bare_lib_root_flagged_twice() {
        let findings = check_rust_source("crates/demo/src/lib.rs", "pub fn x() {}");
        assert_eq!(findings.len(), 2, "missing docs AND missing forbid: {findings:?}");
        assert!(findings.iter().all(|f| f.lint == Lint::LibHeader));
    }

    #[test]
    fn proper_lib_root_clean() {
        let src = "//! Demo crate.\n\n#![forbid(unsafe_code)]\n\npub fn x() {}\n";
        assert!(lints_in("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn forbid_without_docs_flagged_once() {
        let src = "#![forbid(unsafe_code)]\npub fn x() {}\n";
        assert_eq!(lints_in("crates/demo/src/lib.rs", src), vec![Lint::LibHeader]);
    }

    #[test]
    fn non_root_files_skip_header_check() {
        assert!(lints_in(LIB, "pub fn x() {}").is_empty());
    }

    // ---- L6 untagged-todo ---------------------------------------------

    #[test]
    fn untagged_markers_flagged() {
        let src = "// TODO: finish this\npub fn f() {}\n/* FIXME later */\n";
        let findings = check_rust_source(LIB, src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 3);
    }

    #[test]
    fn tagged_markers_accepted() {
        let src = "// TODO(#42): finish this\n/* FIXME(#issue-7): soon */\npub fn f() {}\n";
        assert!(lints_in(LIB, src).is_empty());
    }

    #[test]
    fn markers_in_strings_and_idents_ignored() {
        let src = r##"
            pub fn f() -> &'static str { "TODO: not a comment" }
            pub fn metodos_todo() {}
            // TODOS is a different word, as is FIXMES
        "##;
        assert!(lints_in(LIB, src).is_empty(), "{:?}", check_rust_source(LIB, src));
    }

    #[test]
    fn multiline_block_comment_reports_marker_line() {
        let src = "/* line one\n   TODO here\n*/\npub fn f() {}\n";
        let findings = check_rust_source(LIB, src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }

    // ---- L1 registry-dep ----------------------------------------------

    fn check_toml(src: &str) -> Vec<Finding> {
        manifest::check("crates/demo/Cargo.toml", src)
    }

    #[test]
    fn path_and_workspace_deps_allowed() {
        let src = r##"
[package]
name = "demo"
version = "0.1.0"

[dependencies]
ktg-common = { path = "../common" }
ktg-graph.workspace = true
ktg-core = { workspace = true }

[dependencies.ktg-index]
path = "../index"
"##;
        assert!(check_toml(src).is_empty(), "{:?}", check_toml(src));
    }

    #[test]
    fn version_string_dep_flagged() {
        let f = check_toml("[dependencies]\nserde = \"1.0\"\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::RegistryDep);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn inline_version_and_git_deps_flagged() {
        let src = "[dependencies]\nfoo = { version = \"1\", default-features = false }\nbar = { git = \"https://example.com/bar\" }\n";
        assert_eq!(check_toml(src).len(), 2);
    }

    #[test]
    fn dep_table_with_version_flagged() {
        let src = "[dependencies.foo]\nversion = \"1\"\n";
        assert_eq!(check_toml(src).len(), 1);
    }

    #[test]
    fn banned_names_flagged_even_as_path_deps() {
        let src = "[dependencies]\nrand = { path = \"../rand\" }\n";
        assert_eq!(check_toml(src).len(), 1, "the historical crates must not return at all");
    }

    #[test]
    fn banned_prefixes_flagged() {
        let src = "[dev-dependencies]\nrand_chacha = \"0.3\"\ncrossbeam-channel = \"0.5\"\ncriterion = { version = \"0.5\" }\n";
        let f = check_toml(src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::RegistryDep));
    }

    #[test]
    fn package_section_version_is_not_a_dependency() {
        let src = "[package]\nname = \"demo\"\nversion = \"0.1.0\"\nedition = \"2021\"\n";
        assert!(check_toml(src).is_empty());
    }

    #[test]
    fn build_dependencies_also_scanned() {
        let src = "[build-dependencies]\ncc = \"1.0\"\n";
        assert_eq!(check_toml(src).len(), 1);
    }

    // ---- lint registry --------------------------------------------------

    #[test]
    fn lint_ids_roundtrip() {
        for lint in ALL_LINTS {
            assert_eq!(Lint::from_id(lint.id()), Some(lint));
            assert!(!lint.explain().is_empty());
        }
        assert_eq!(Lint::from_id("L11"), None);
        assert_eq!(Lint::from_id("bogus"), None);
    }

    // ---- snippets -------------------------------------------------------

    #[test]
    fn snippets_normalize_whitespace() {
        let src = "fn a() {}\n    let x =\t 1;   \nfn c() {}";
        assert_eq!(snippet_at(src, 2).unwrap(), "let x = 1;");
        assert_eq!(snippet_at(src, 0), None, "file-level findings have no snippet");
        assert_eq!(snippet_at(src, 99), None);
    }

    // ---- analyze orchestration ------------------------------------------

    #[test]
    fn analyze_attaches_fingerprints_and_sorts() {
        let sources = vec![SourceFile {
            path: LIB.to_string(),
            text: "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
        }];
        let manifests = vec![SourceFile {
            path: "crates/demo/Cargo.toml".to_string(),
            text: "[dependencies]\nserde = \"1.0\"\n".to_string(),
        }];
        let findings = analyze(&sources, &manifests, &atomics::Allowlist::default());
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| !f.snippet.is_empty()));
        // Sorted by path: the manifest (Cargo.toml) precedes src/algo.rs.
        assert_eq!(findings[0].lint, Lint::RegistryDep);
        assert_eq!(findings[1].lint, Lint::PanicInLib);
    }
}
