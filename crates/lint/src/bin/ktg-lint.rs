//! `ktg-lint` — run the workspace lints; any finding fails.
//!
//! ```text
//! ktg-lint [--root DIR] [--update-atomics] [--json] [--explain L<N>]
//! ```
//!
//! * default: scan, print every finding on stderr, exit 1 if there is
//!   any.
//! * `--update-atomics`: rewrite `tools/atomics-allowlist.txt` from the
//!   workspace's current `Ordering::` sites (L8). Review the diff — an
//!   ordering change is a memory-model decision.
//! * `--json`: emit the run as one JSON object on stdout (pass verdict,
//!   timing, per-lint totals, findings) — the CI artifact form. The exit
//!   code is the default run's.
//! * `--explain L7`: print a lint's rule and rationale.

use ktg_lint::lints::ALL_LINTS;
use ktg_lint::{walk, Finding, Lint, ATOMICS_PATH};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    root: Option<PathBuf>,
    update_atomics: bool,
    json: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { root: None, update_atomics: false, json: false, explain: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--update-atomics" => opts.update_atomics = true,
            "--json" => opts.json = true,
            "--explain" => {
                let id = args.next().ok_or("--explain requires a lint id (e.g. L7)")?;
                opts.explain = Some(id);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: ktg-lint [--root DIR] [--update-atomics] [--json] [--explain L<N>]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ktg-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;

    if let Some(id) = &opts.explain {
        let Some(lint) = Lint::from_id(id) else {
            let known: Vec<&str> = ALL_LINTS.iter().map(|l| l.id()).collect();
            return Err(format!("unknown lint `{id}` — known: {}", known.join(" ")));
        };
        println!("[{} {}]", lint.id(), lint.name());
        println!();
        println!("{}", lint.explain());
        return Ok(ExitCode::SUCCESS);
    }

    let root = match &opts.root {
        Some(dir) => dir.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            walk::find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory")?
        }
    };

    if opts.update_atomics {
        let allow = ktg_lint::collect_atomics_allowlist(&root).map_err(|e| e.to_string())?;
        let file = root.join(ATOMICS_PATH);
        std::fs::write(&file, allow.render())
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
        println!("ktg-lint: atomics allowlist rewritten at {ATOMICS_PATH}");
        return Ok(ExitCode::SUCCESS);
    }

    let started = Instant::now();
    let findings = ktg_lint::scan_workspace(&root).map_err(|e| e.to_string())?;
    let code = if findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };

    if opts.json {
        let elapsed_ms = started.elapsed().as_millis();
        println!("{}", render_json(&findings, elapsed_ms));
        return Ok(code);
    }

    if findings.is_empty() {
        println!("ktg-lint: PASS — no findings");
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("ktg-lint: FAIL — {} finding(s)", findings.len());
    }
    Ok(code)
}

/// Hand-rolled JSON (the dependency budget excludes serde): one object
/// with the pass verdict, timing, per-lint totals, and every finding.
fn render_json(findings: &[Finding], elapsed_ms: u128) -> String {
    let mut totals: BTreeMap<Lint, usize> = BTreeMap::new();
    for f in findings {
        *totals.entry(f.lint).or_insert(0) += 1;
    }
    let mut out = String::with_capacity(findings.len() * 160 + 256);
    out.push_str("{\n");
    out.push_str(&format!("  \"pass\": {},\n", findings.is_empty()));
    out.push_str(&format!("  \"elapsed_ms\": {elapsed_ms},\n"));
    out.push_str("  \"totals\": {");
    for (i, (lint, total)) in totals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {total}", lint.id()));
    }
    out.push_str("},\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"name\": \"{}\", \"path\": {}, \"line\": {}, \
             \"message\": {}, \"snippet\": {}}}{}\n",
            f.lint.id(),
            f.lint.name(),
            json_str(&f.path),
            f.line,
            json_str(&f.message),
            json_str(&f.snippet),
            if i + 1 < findings.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}");
    out
}

/// Escapes a string into a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
