//! # `ktg-cli`
//!
//! The `ktg` command-line tool: generate datasets, inspect graphs, build
//! and persist indexes, and run KTG/DKTG queries from a shell.
//!
//! ```text
//! ktg generate --profile gowalla --scale 100 --seed 42 --out data/
//! ktg stats    --edges data/edges.txt
//! ktg index    --edges data/edges.txt --keywords data/keywords.txt \
//!              --bundle data/net.bundle
//! ktg query    --bundle data/net.bundle --terms t1,t5,t9 -p 3 -k 2 -n 5 --explain true
//! ktg dktg     --edges data/edges.txt --keywords data/keywords.txt \
//!              --terms t1,t5,t9 -p 3 -k 2 -n 5 --gamma 0.5
//! ktg batch    --workload queries.txt --edges data/edges.txt \
//!              --keywords data/keywords.txt --threads 4 --cache-entries 4096
//! ktg serve    --edges data/edges.txt --keywords data/keywords.txt \
//!              --bind 127.0.0.1:7433 --workers 4 --max-inflight 3
//! ktg serve    --connect 127.0.0.1:7433 --workload queries.txt
//! ```
//!
//! Every command is a library function writing to a caller-supplied
//! writer, so the test suite drives them without spawning processes; the
//! binary (`src/bin/ktg.rs`) is a thin argument-parsing shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod serve;

pub use args::{Command, ParsedArgs};

/// How the dispatched command finished (its answers' completion status).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Every answer produced was exact.
    Complete,
    /// At least one answer was degraded (deadline/budget best-so-far)
    /// or failed, and none were shed. The binary maps this to exit
    /// code 3 so scripts can tell "valid but partial" from success (0)
    /// and error (2).
    Degraded,
    /// At least one query was shed unsolved by a server's admission
    /// gauge (`ktg serve --max-inflight`, or a drain), as seen by
    /// `ktg serve --connect`. The binary maps this to exit code 4 — distinct
    /// from 3 because shedding is a capacity decision, not an answer
    /// quality one, and a retry against an idle server would succeed.
    /// Shedding takes precedence over degradation when both occur.
    Overloaded,
}

/// Entry point shared by the binary and the tests: parse, dispatch, write
/// human-readable output to `out`.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> ktg_common::Result<RunStatus> {
    // Validate `KTG_FAULTS` loudly up front. The library-side env init
    // deliberately ignores a malformed spec (library code must not abort
    // its host); the CLI is the place to refuse one.
    if let Ok(spec) = std::env::var("KTG_FAULTS") {
        let spec = spec.trim();
        if !spec.is_empty() {
            ktg_common::FaultConfig::from_spec(spec)?;
        }
    }
    let parsed = args::parse(argv)?;
    commands::dispatch(&parsed, out)
}
