//! Per-block scope analysis: statements, lock-guard bindings, and
//! their liveness.
//!
//! The lock-discipline (L7) and fault-site-placement (L9) lints reason
//! about *order within a block*: which guards are live when a lock is
//! acquired, and whether a shared-state write precedes a fault site.
//! This module provides the shared machinery: splitting a function body
//! into statements (`;` at depth 0, nested `{ … }` blocks recursed),
//! recognizing lock-acquisition expressions, and tracking `let`-bound
//! guards until end of scope, `drop(guard)`, or shadowing.
//!
//! The model is deliberately syntactic. It does not chase moves,
//! borrows, or guards returned from helper functions — it recognizes
//! the acquisition *forms this workspace actually uses* (`.lock()`,
//! `.read()`, `.write()` with empty argument lists, and the
//! poison-recovering helpers `lock_mutex` / `read_session` /
//! `write_session`) and classifies each into a lock tier by the
//! identifiers appearing in the receiver expression.

use crate::lexer::{Token, TokenKind};

/// The workspace's fixed lock-acquisition order. A lower tier must
/// never be acquired while a guard from a higher tier is live.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockTier {
    /// Tier 0: the serving session `RwLock` (`ServeSession` behind
    /// `read_session` / `write_session`).
    Session = 0,
    /// Tier 1: a result-cache shard `Mutex` (or the NL expansion shards).
    CacheShard = 1,
    /// Tier 2: the server's write-ahead-log `Mutex`, taken after the
    /// session lock by the update path and by checkpoints.
    Wal = 2,
}

impl LockTier {
    /// Display name used in findings.
    pub fn name(self) -> &'static str {
        match self {
            LockTier::Session => "session",
            LockTier::CacheShard => "cache-shard",
            LockTier::Wal => "wal",
        }
    }
}

/// One recognized lock acquisition.
#[derive(Clone, Debug)]
pub struct Acquisition {
    /// Classified tier, or `None` for locks outside the ordered set.
    pub tier: Option<LockTier>,
    /// Token index of the acquisition method / helper name.
    pub at: usize,
    /// Identifiers of the receiver expression (for diagnostics).
    pub receiver: String,
}

/// A live `let`-bound guard.
#[derive(Clone, Debug)]
pub struct Guard {
    /// The binding name.
    pub name: String,
    /// The tier of the lock it holds, when classified.
    pub tier: Option<LockTier>,
    /// Token index where the guard was bound (for diagnostics).
    pub at: usize,
}

/// The poison-recovering helper functions that return guards.
const HELPERS: [(&str, bool); 3] =
    [("lock_mutex", false), ("read_session", true), ("write_session", true)];

/// Classifies an acquisition by the identifiers around it. `idents` is
/// every identifier in the receiver expression (plus helper arguments).
pub fn classify_tier(idents: &[&str]) -> Option<LockTier> {
    let has = |needles: &[&str]| {
        idents.iter().any(|id| {
            let id = id.to_ascii_lowercase();
            needles.iter().any(|n| id.contains(n))
        })
    };
    if has(&["session"]) {
        Some(LockTier::Session)
    } else if has(&["shard", "cache", "expanded"]) {
        Some(LockTier::CacheShard)
    } else if idents.iter().any(|id| id.to_ascii_lowercase().split('_').any(|w| w == "wal")) {
        // A whole `_`-separated word, so `walk` or `swallow` never match.
        Some(LockTier::Wal)
    } else {
        None
    }
}

/// Scans `[start, end)` for lock acquisitions:
///
/// * `<recv> . lock ( )` / `. read ( )` / `. write ( )` with an empty
///   argument list (so `file.write(buf)` is never an acquisition);
/// * `lock_mutex(<arg>)` / `read_session()` / `write_session()` calls.
pub fn acquisitions(tokens: &[Token<'_>], start: usize, end: usize) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in start..end.min(tokens.len()) {
        let t = tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let empty_call = |j: usize| {
            matches!(tokens.get(j), Some(p) if p.text == "(")
                && matches!(tokens.get(j + 1), Some(p) if p.text == ")")
        };
        match t.text {
            "lock" | "read" | "write" => {
                let is_method = i > start && tokens[i - 1].text == ".";
                if is_method && empty_call(i + 1) {
                    let recv = receiver_idents(tokens, start, i - 1);
                    let tier = classify_tier(&recv);
                    out.push(Acquisition { tier, at: i, receiver: recv.join(".") });
                }
            }
            name => {
                if let Some(&(_, takes_self)) = HELPERS.iter().find(|(h, _)| *h == name) {
                    let is_call = matches!(tokens.get(i + 1), Some(p) if p.text == "(");
                    // Skip the definition site (`fn lock_mutex(...)`).
                    let is_def = i > 0 && tokens[i - 1].text == "fn";
                    if is_call && !is_def {
                        let mut idents: Vec<&str> = vec![name];
                        if !takes_self {
                            // Classify by the helper's argument idents.
                            let close = arg_close(tokens, i + 1, end);
                            idents.extend(
                                tokens[i + 2..close]
                                    .iter()
                                    .filter(|a| a.kind == TokenKind::Ident)
                                    .map(|a| a.text),
                            );
                        }
                        let tier = classify_tier(&idents);
                        out.push(Acquisition { tier, at: i, receiver: idents.join(".") });
                    }
                }
            }
        }
    }
    out
}

/// Index of the `)` closing the `(` at `open`.
fn arg_close(tokens: &[Token<'_>], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().take(end.min(tokens.len())).skip(open) {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    end.min(tokens.len()).saturating_sub(1)
}

/// The identifiers of the method-call receiver ending just before
/// `dot` — walks the chain back over `ident`, `.`, `::`, index
/// brackets and call parens: `self.stripes[stripe]` → `[self,
/// stripes, stripe]`.
fn receiver_idents<'a>(tokens: &[Token<'a>], start: usize, dot: usize) -> Vec<&'a str> {
    let mut idents = Vec::new();
    let mut j = dot; // tokens[dot] is the `.`
    let mut depth = 0usize;
    while j > start {
        j -= 1;
        let t = tokens[j];
        match t.text {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                if depth == 0 {
                    break; // opened the enclosing expression — receiver ended
                }
                depth -= 1;
            }
            "." | ":" | "&" | "*" => {}
            _ if t.kind == TokenKind::Ident => {
                if depth == 0 || depth == 1 {
                    idents.push(t.text);
                }
            }
            _ if depth > 0 => {}
            _ => break,
        }
    }
    idents.reverse();
    idents
}

/// One statement within a block: a token range and the nested blocks it
/// contains.
#[derive(Clone, Debug)]
pub struct Statement {
    /// Token range `[start, end)` of the whole statement.
    pub range: (usize, usize),
    /// Ranges of nested `{ … }` blocks inside the statement (brace
    /// indices inclusive), in source order.
    pub blocks: Vec<(usize, usize)>,
}

/// Splits the body of a block (`open`/`close` are the brace indices)
/// into statements: `;` at depth 0 ends a statement, and a `{ … }` at
/// depth 0 whose close is followed by a statement-starting token also
/// ends one (block expressions, `if`/`match`/loop statements).
pub fn statements(tokens: &[Token<'_>], open: usize, close: usize) -> Vec<Statement> {
    let mut out = Vec::new();
    let mut stmt_start = open + 1;
    let mut blocks = Vec::new();
    let mut depth = 0usize;
    let mut j = open + 1;
    while j < close {
        match tokens[j].text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" if depth == 0 => {
                let b_close = matching(tokens, j, close);
                blocks.push((j, b_close));
                j = b_close;
                // A block ends its statement (`if`/`match`/loop bodies)
                // unless the expression visibly continues: `else`
                // chains, method calls or `?` on a block expression, a
                // struct literal awaiting its `;`, or a delimiter that
                // means the block sat inside a larger expression.
                let continues = matches!(
                    tokens.get(j + 1).map(|t| t.text),
                    Some("else" | "." | "?" | ";" | "," | ")" | "]" | "}" | "=" | "==")
                ) || j + 1 >= close;
                if !continues {
                    out.push(Statement { range: (stmt_start, j + 1), blocks: blocks.clone() });
                    blocks.clear();
                    stmt_start = j + 1;
                }
            }
            ";" if depth == 0 => {
                out.push(Statement { range: (stmt_start, j + 1), blocks: blocks.clone() });
                blocks.clear();
                stmt_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    if stmt_start < close {
        out.push(Statement { range: (stmt_start, close), blocks });
    }
    out
}

/// Index of the `}` matching the `{` at `open`, bounded by `end`.
pub fn matching(tokens: &[Token<'_>], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().take(end.min(tokens.len())).skip(open) {
        match t.text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    end.min(tokens.len()).saturating_sub(1)
}

/// If the statement is a `let <name> = …;` binding, the bound name.
/// `let Some(g) = …` / tuple patterns are not guard bindings here —
/// the workspace binds guards by simple name.
pub fn let_binding<'a>(tokens: &[Token<'a>], stmt: &Statement) -> Option<&'a str> {
    let (s, e) = stmt.range;
    let t = tokens.get(s)?;
    if t.text != "let" {
        return None;
    }
    let mut j = s + 1;
    // Skip `mut`.
    if matches!(tokens.get(j), Some(t) if t.text == "mut") {
        j += 1;
    }
    let name = tokens.get(j)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    // The next meaningful token must be `=` or `:` (a type ascription);
    // `(`/`{` would make it a pattern binding.
    match tokens.get(j + 1).map(|t| t.text) {
        Some("=" | ":") if j + 1 < e => Some(name.text),
        _ => None,
    }
}

/// Whether the statement is `drop ( <name> )`.
pub fn drops<'a>(tokens: &[Token<'a>], stmt: &Statement) -> Option<&'a str> {
    let (s, e) = stmt.range;
    if e.saturating_sub(s) < 4 {
        return None;
    }
    if tokens[s].text == "drop" && tokens[s + 1].text == "(" {
        let name = tokens.get(s + 2)?;
        if name.kind == TokenKind::Ident && tokens.get(s + 3).map(|t| t.text) == Some(")") {
            return Some(name.text);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lexer::code_tokens(src)
    }

    #[test]
    fn classify_by_identifier() {
        assert_eq!(classify_tier(&["self", "session"]), Some(LockTier::Session));
        assert_eq!(classify_tier(&["shard"]), Some(LockTier::CacheShard));
        assert_eq!(classify_tier(&["wal"]), Some(LockTier::Wal));
        assert_eq!(classify_tier(&["lock_mutex", "shared", "wal"]), Some(LockTier::Wal));
        assert_eq!(classify_tier(&["wal_state"]), Some(LockTier::Wal));
        assert_eq!(classify_tier(&["walk"]), None);
        assert_eq!(classify_tier(&["self", "stats_stripe"]), None);
        assert_eq!(classify_tier(&["shared", "pending"]), None);
    }

    #[test]
    fn method_acquisitions_recognized() {
        let t = toks("let g = self.session.read(); let h = shard.lock();");
        let acqs = acquisitions(&t, 0, t.len());
        assert_eq!(acqs.len(), 2);
        assert_eq!(acqs[0].tier, Some(LockTier::Session));
        assert_eq!(acqs[1].tier, Some(LockTier::CacheShard));
    }

    #[test]
    fn write_with_arguments_is_io_not_a_lock() {
        let t = toks("file.write(buf); out.write_all(b); self.session.write();");
        let acqs = acquisitions(&t, 0, t.len());
        assert_eq!(acqs.len(), 1, "{acqs:?}");
        assert_eq!(acqs[0].tier, Some(LockTier::Session));
    }

    #[test]
    fn helper_acquisitions_classified_by_argument() {
        let t = toks("let g = lock_mutex(wal); let s = read_session();");
        let acqs = acquisitions(&t, 0, t.len());
        assert_eq!(acqs.len(), 2);
        assert_eq!(acqs[0].tier, Some(LockTier::Wal));
        assert_eq!(acqs[1].tier, Some(LockTier::Session));
    }

    #[test]
    fn helper_definition_is_not_an_acquisition() {
        let t = toks("fn lock_mutex<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock() }");
        let acqs = acquisitions(&t, 0, t.len());
        // The body's `m.lock()` is found, but the `fn lock_mutex` is not.
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].receiver, "m");
    }

    #[test]
    fn statements_split_on_semicolons_and_blocks() {
        let src = "{ let a = 1; if x { y(); } let b = 2; }";
        let t = toks(src);
        let close = matching(&t, 0, t.len());
        let stmts = statements(&t, 0, close);
        assert_eq!(stmts.len(), 3, "{stmts:?}");
        assert_eq!(stmts[1].blocks.len(), 1);
    }

    #[test]
    fn let_bindings_and_drop() {
        let src = "{ let mut g = m.lock(); drop(g); let (a, b) = pair; }";
        let t = toks(src);
        let close = matching(&t, 0, t.len());
        let stmts = statements(&t, 0, close);
        assert_eq!(let_binding(&t, &stmts[0]), Some("g"));
        assert_eq!(drops(&t, &stmts[1]), Some("g"));
        assert_eq!(let_binding(&t, &stmts[2]), None, "tuple patterns are not guards");
    }

    #[test]
    fn receiver_stops_at_expression_boundary() {
        let t = toks("f(session.read())");
        let acqs = acquisitions(&t, 0, t.len());
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].receiver, "session");
    }
}
