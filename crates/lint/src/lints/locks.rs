//! L7: lock discipline — the fixed acquisition order (session →
//! cache-shard → wal), and no lock acquisition inside a `catch_unwind`
//! closure.
//!
//! The pass walks each non-test function body block by block, tracking
//! `let`-bound guards ([`crate::scopes`]). Acquiring a tier while a
//! guard from a *later* tier is live inverts the global order and is
//! flagged; guards die at end of block, at `drop(guard)`, or when
//! shadowed. Unclassified locks (tier `None`) participate as guards but
//! never trigger the ordering check — the order only constrains the
//! three named tiers.

use super::{Finding, Lint};
use crate::parser::Ast;
use crate::scopes::{self, Guard, LockTier};

/// Runs the lock-discipline pass over one parsed file.
pub fn lint(relpath: &str, ast: &Ast<'_>, out: &mut Vec<Finding>) {
    for f in &ast.fns {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else { continue };
        let mut guards: Vec<Guard> = Vec::new();
        walk_block(relpath, ast, open, close, &mut guards, out);
    }
    lint_catch_unwind(relpath, ast, out);
}

/// Walks one `{ … }` block, statement by statement, with the guards
/// live on entry. Guards bound inside die when the block ends.
fn walk_block(
    relpath: &str,
    ast: &Ast<'_>,
    open: usize,
    close: usize,
    guards: &mut Vec<Guard>,
    out: &mut Vec<Finding>,
) {
    let entry_guards = guards.len();
    for stmt in scopes::statements(&ast.tokens, open, close) {
        if let Some(name) = scopes::drops(&ast.tokens, &stmt) {
            guards.retain(|g| g.name != name);
            continue;
        }
        // Acquisitions written at this statement's own level (nested
        // blocks are handled by the recursion below, with the current
        // guard set live).
        let (s, e) = stmt.range;
        let mut stmt_acqs = Vec::new();
        let mut at = s;
        for &(b_open, b_close) in &stmt.blocks {
            stmt_acqs.extend(scopes::acquisitions(&ast.tokens, at, b_open));
            at = b_close + 1;
        }
        stmt_acqs.extend(scopes::acquisitions(&ast.tokens, at, e));

        for acq in &stmt_acqs {
            check_order(relpath, ast, acq, guards, out);
        }
        if let Some(name) = scopes::let_binding(&ast.tokens, &stmt) {
            guards.retain(|g| g.name != name); // shadowing ends the old guard
            if let Some(acq) = stmt_acqs.first() {
                guards.push(Guard { name: name.to_string(), tier: acq.tier, at: acq.at });
            }
        }
        for &(b_open, b_close) in &stmt.blocks {
            walk_block(relpath, ast, b_open, b_close, guards, out);
        }
    }
    guards.truncate(entry_guards);
}

/// Flags `acq` when a live guard holds a later tier.
fn check_order(
    relpath: &str,
    ast: &Ast<'_>,
    acq: &scopes::Acquisition,
    guards: &[Guard],
    out: &mut Vec<Finding>,
) {
    let Some(tier) = acq.tier else { return };
    let Some(worst) = guards
        .iter()
        .filter(|g| g.tier.is_some_and(|gt| gt > tier))
        .max_by_key(|g| g.tier)
    else {
        return;
    };
    let held = worst.tier.map_or("?", LockTier::name);
    out.push(Finding::new(
        Lint::LockDiscipline,
        relpath,
        ast.tokens[acq.at].line,
        format!(
            "acquires the {} lock (`{}`) while the {held} guard `{}` is live — the \
             acquisition order is session → cache-shard → wal",
            tier.name(),
            acq.receiver,
            worst.name
        ),
    ));
}

/// Flags any lock acquisition written inside a `catch_unwind(…)` call.
fn lint_catch_unwind(relpath: &str, ast: &Ast<'_>, out: &mut Vec<Finding>) {
    let tokens = &ast.tokens;
    for i in 0..tokens.len() {
        if ast.in_test[i]
            || tokens[i].text != "catch_unwind"
            || !matches!(tokens.get(i + 1), Some(p) if p.text == "(")
        {
            continue;
        }
        let mut depth = 0usize;
        let mut close = tokens.len();
        for (j, t) in tokens.iter().enumerate().skip(i + 1) {
            match t.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        for acq in scopes::acquisitions(tokens, i + 2, close) {
            out.push(Finding::new(
                Lint::LockDiscipline,
                relpath,
                tokens[acq.at].line,
                format!(
                    "lock acquisition (`{}`) inside a `catch_unwind` closure — a panic \
                     between acquire and release poisons the lock inside the isolation \
                     boundary; acquire outside and pass the data in",
                    acq.receiver
                ),
            ));
        }
    }
}
