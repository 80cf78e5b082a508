//! Argument parsing.
//!
//! Hand-rolled (the workspace's dependency budget has no `clap`): a
//! subcommand word followed by `--flag value` pairs, with short aliases
//! for the query parameters (`-p`, `-k`, `-n`). A flag the subcommand
//! does not read is an error, so a typo cannot silently fall back to a
//! default.

use ktg_common::{FxHashMap, KtgError, Result};

/// The CLI subcommands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Generate a synthetic dataset from a named profile.
    Generate,
    /// Print graph/keyword statistics.
    Stats,
    /// Build and persist an NLRNL index.
    Index,
    /// Run a KTG query.
    Query,
    /// Run a DKTG (diversified) query.
    Dktg,
    /// Replay a workload file through the batched serving engine.
    Batch,
    /// Run the persistent TCP serving front-end (or its client mode).
    Serve,
}

impl Command {
    fn from_word(word: &str) -> Result<Self> {
        match word {
            "generate" => Ok(Command::Generate),
            "stats" => Ok(Command::Stats),
            "index" => Ok(Command::Index),
            "query" => Ok(Command::Query),
            "dktg" => Ok(Command::Dktg),
            "batch" => Ok(Command::Batch),
            "serve" => Ok(Command::Serve),
            other => Err(KtgError::input(format!(
                "unknown command '{other}' (expected generate|stats|index|query|dktg|batch|serve)"
            ))),
        }
    }

    fn word(self) -> &'static str {
        match self {
            Command::Generate => "generate",
            Command::Stats => "stats",
            Command::Index => "index",
            Command::Query => "query",
            Command::Dktg => "dktg",
            Command::Batch => "batch",
            Command::Serve => "serve",
        }
    }

    /// Every flag the command reads, in canonical spelling. `serve`
    /// takes the union of its server and client modes.
    fn accepted_flags(self) -> &'static [&'static [&'static str]] {
        match self {
            Command::Generate => &[GENERATE_FLAGS],
            Command::Stats => &[NETWORK_FLAGS],
            Command::Index => &[NETWORK_FLAGS, &["threads"]],
            Command::Query => &[NETWORK_FLAGS, QUERY_FLAGS],
            Command::Dktg => &[NETWORK_FLAGS, QUERY_FLAGS, &["gamma"]],
            Command::Batch => &[NETWORK_FLAGS, SESSION_FLAGS, &["workload"]],
            Command::Serve => &[NETWORK_FLAGS, SESSION_FLAGS, SERVER_FLAGS, CLIENT_FLAGS],
        }
    }
}

const GENERATE_FLAGS: &[&str] = &[
    "profile", "out", "scale", "seed", "sbm-n", "sbm-blocks", "sbm-pin", "sbm-pout",
    "chunk-capacity",
];
/// Where a command loads its network from.
const NETWORK_FLAGS: &[&str] = &["edges", "keywords", "bundle"];
const QUERY_FLAGS: &[&str] = &[
    "p", "k", "n", "terms", "random-terms", "seed", "oracle", "algo", "threads",
    "bitmap-threshold", "deadline-ms", "node-budget", "authors", "explain",
];
/// The serving-session flags shared by `batch` and the server. Sessions
/// always run the default engine (VKC-DEG, bitmap kernel up to
/// `DEFAULT_BITMAP_THRESHOLD` candidates); only `query`/`dktg` choose
/// `--algo` and `--bitmap-threshold`.
const SESSION_FLAGS: &[&str] =
    &["threads", "no-cache", "cache-entries", "deadline-ms", "node-budget"];
const SERVER_FLAGS: &[&str] =
    &["bind", "workers", "conn-deadline-ms", "wal", "wal-sync", "checkpoint-every"];
const CLIENT_FLAGS: &[&str] =
    &["connect", "workload", "stats", "shutdown", "retry", "retry-base-ms"];

/// A parsed command line: the subcommand plus its flag map.
#[derive(Clone, Debug)]
pub struct ParsedArgs {
    /// The subcommand.
    pub command: Command,
    flags: FxHashMap<String, String>,
}

/// Canonical spelling for a flag, resolving short aliases.
fn canonical(flag: &str) -> &str {
    match flag {
        "-p" => "p",
        "-k" => "k",
        "-n" => "n",
        other => other.trim_start_matches("--"),
    }
}

/// Flags that stand alone (no value token follows them).
const BOOLEAN_FLAGS: &[&str] = &["no-cache", "stats", "shutdown"];

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<ParsedArgs> {
    let mut iter = argv.iter();
    let word = iter.next().ok_or_else(|| {
        KtgError::input("missing command (generate|stats|index|query|dktg|batch|serve)")
    })?;
    let command = Command::from_word(word)?;
    let mut flags = FxHashMap::default();
    while let Some(flag) = iter.next() {
        if !flag.starts_with('-') {
            return Err(KtgError::input(format!("unexpected positional argument '{flag}'")));
        }
        let name = canonical(flag);
        if !command.accepted_flags().iter().any(|group| group.contains(&name)) {
            return Err(KtgError::input(format!(
                "unknown flag '{flag}' for `ktg {}`",
                command.word()
            )));
        }
        if BOOLEAN_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| KtgError::input(format!("flag '{flag}' needs a value")))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(ParsedArgs { command, flags })
}

impl ParsedArgs {
    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| KtgError::input(format!("missing required flag --{name}")))
    }

    /// An optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A required numeric flag.
    pub fn required_num<T: std::str::FromStr>(&self, name: &str) -> Result<T> {
        self.required(name)?.parse::<T>().map_err(|_| {
            KtgError::input(format!("flag --{name} has a non-numeric value"))
        })
    }

    /// An optional numeric flag with a default.
    pub fn num_or<T: std::str::FromStr + Copy>(&self, name: &str, default: T) -> Result<T> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse::<T>().map_err(|_| {
                KtgError::input(format!("flag --{name} has a non-numeric value"))
            }),
        }
    }

    /// A comma-separated list flag.
    pub fn list(&self, name: &str) -> Result<Vec<String>> {
        Ok(self
            .required(name)?
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = parse(&argv(&["query", "--edges", "e.txt", "-p", "3", "-k", "2"])).unwrap();
        assert_eq!(p.command, Command::Query);
        assert_eq!(p.required("edges").unwrap(), "e.txt");
        assert_eq!(p.required_num::<usize>("p").unwrap(), 3);
        assert_eq!(p.required_num::<u32>("k").unwrap(), 2);
    }

    #[test]
    fn defaults_and_optionals() {
        let p = parse(&argv(&["stats", "--edges", "e.txt"])).unwrap();
        assert_eq!(p.num_or("seed", 7u64).unwrap(), 7);
        assert!(p.optional("keywords").is_none());
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(parse(&argv(&["frobnicate"])).is_err());
        assert!(parse(&argv(&[])).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&argv(&["stats", "--edges"])).is_err());
    }

    #[test]
    fn positional_rejected() {
        assert!(parse(&argv(&["stats", "whoops"])).is_err());
    }

    #[test]
    fn list_flag_splits_and_trims() {
        let p = parse(&argv(&["query", "--terms", "a, b,,c"])).unwrap();
        assert_eq!(p.list("terms").unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn boolean_flags_stand_alone() {
        let p = parse(&argv(&["batch", "--no-cache", "--workload", "w.txt"])).unwrap();
        assert_eq!(p.command, Command::Batch);
        assert_eq!(p.optional("no-cache"), Some("true"));
        assert_eq!(p.required("workload").unwrap(), "w.txt");
    }

    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        // Only `query`/`dktg` read `--oracle`, `--algo` and
        // `--bitmap-threshold` (sessions always run the default engine
        // over NLRNL); `--cache-entires` is a misspelling. Retired flags —
        // `index --out`, `query --index`/`--parallel`, the graph layout
        // flag (spelled in two pieces so its name appears in the tree
        // only as this rejected case), `--max-inflight` — must fail
        // naming the flag.
        for argv_parts in [
            &["index", "--edges", "e.txt", "--bundle", "b", "--oracle", "nlrnl"][..],
            &["index", "--edges", "e.txt", "--out", "i.idx"][..],
            &["query", "--terms", "a", "--index", "i.idx"][..],
            &["query", "--terms", "a", "--parallel", "true"][..],
            &["batch", "--workload", "w.txt", concat!("--graph", "-format"), "flat"][..],
            &["batch", "--workload", "w.txt", "--oracle", "nlrnl"][..],
            &["serve", "--bind", "127.0.0.1:0", "--oracle", "nlrnl"][..],
            &["batch", "--workload", "w.txt", "--algo", "vkc"][..],
            &["serve", "--bind", "127.0.0.1:0", "--bitmap-threshold", "0"][..],
            &["batch", "--workload", "w.txt", "--cache-entires", "64"][..],
            &["batch", "--workload", "w.txt", "--max-inflight", "1"][..],
            &["serve", "--bind", "127.0.0.1:0", "--max-inflight", "1"][..],
            &["query", "--terms", "a", "--gamma", "0.5"][..],
        ] {
            // Each case ends in `--flag value`.
            let flag = argv_parts[argv_parts.len() - 2];
            match parse(&argv(argv_parts)) {
                Err(KtgError::InvalidInput(msg)) => {
                    assert!(msg.contains(flag), "{argv_parts:?}: {msg}")
                }
                other => panic!("{argv_parts:?} should be rejected, got {other:?}"),
            }
        }
        // `serve` accepts both its server and its client flags.
        assert!(parse(&argv(&["serve", "--bundle", "b", "--wal", "w", "--workers", "2"])).is_ok());
        assert!(parse(&argv(&["serve", "--connect", "a", "--stats", "--retry", "3"])).is_ok());
    }

    #[test]
    fn bad_number_reported() {
        let p = parse(&argv(&["query", "-p", "three"])).unwrap();
        assert!(p.required_num::<usize>("p").is_err());
    }
}
