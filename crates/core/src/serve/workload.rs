//! Workload files: the batch executor's input format.
//!
//! A workload is a line-oriented text script replayed in order by
//! [`super::ServeSession::run`]. Blank lines and `#` comments are
//! skipped; every other line is one [`WorkloadItem`]:
//!
//! ```text
//! # KTG query: keyword terms (comma-separated), group size, tenuity, top-N
//! ktg terms=SN,QP,DQ p=3 k=1 n=2
//! # DKTG query: same fields plus the diversity weight (default 0.5)
//! dktg terms=SN,QP,DQ p=3 k=1 n=2 gamma=0.5
//! # dynamic edge updates, by vertex id
//! insert 4 17
//! remove 0 3
//! ```
//!
//! Key-value fields may appear in any order. Terms are resolved against
//! the network's vocabulary at parse time, so an unknown keyword, an
//! out-of-range vertex id or a self-loop update fails fast with a line
//! number instead of surfacing mid-replay. The resolved keyword ids are
//! sorted, so the order of `terms=` never matters: permuted lines parse
//! to the same query.

use ktg_common::{KtgError, Result, VertexId};
use ktg_keywords::QueryKeywords;

use crate::dktg::DktgQuery;
use crate::network::AttributedGraph;
use crate::query::KtgQuery;

/// One line of a workload: a query to answer or an update to apply.
#[derive(Clone, Debug)]
pub enum WorkloadItem {
    /// A KTG query (answered with the session's engine options).
    Ktg(KtgQuery),
    /// A DKTG query (greedy diversified variant).
    Dktg(DktgQuery),
    /// Insert the undirected edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Remove the undirected edge `{u, v}`.
    Remove(VertexId, VertexId),
}

impl WorkloadItem {
    /// Whether this item is a query (parallelizable) as opposed to an
    /// update (a serialization point).
    #[inline]
    pub fn is_query(&self) -> bool {
        matches!(self, WorkloadItem::Ktg(_) | WorkloadItem::Dktg(_))
    }
}

/// Longest accepted workload line, in bytes. Real workload lines are
/// tens of bytes; a multi-kilobyte "line" means a corrupt (or binary)
/// file was fed in, and it is refused with a line number before any
/// field parsing looks at its contents.
pub const MAX_LINE_BYTES: usize = 4096;

fn line_err(lineno: usize, msg: impl std::fmt::Display) -> KtgError {
    KtgError::input(format!("workload line {lineno}: {msg}"))
}

struct Fields<'a> {
    terms: Option<&'a str>,
    p: Option<usize>,
    k: Option<u32>,
    n: Option<usize>,
    gamma: Option<f64>,
}

fn parse_fields<'a>(
    lineno: usize,
    tokens: impl Iterator<Item = &'a str>,
) -> Result<Fields<'a>> {
    let mut f = Fields { terms: None, p: None, k: None, n: None, gamma: None };
    for tok in tokens {
        let Some((key, val)) = tok.split_once('=') else {
            return Err(line_err(lineno, format!("expected key=value, got `{tok}`")));
        };
        let bad = |what: &str| line_err(lineno, format!("invalid {what} `{val}`"));
        let dup = || line_err(lineno, format!("duplicate field `{key}`"));
        match key {
            "terms" if f.terms.is_some() => return Err(dup()),
            "p" if f.p.is_some() => return Err(dup()),
            "k" if f.k.is_some() => return Err(dup()),
            "n" if f.n.is_some() => return Err(dup()),
            "gamma" if f.gamma.is_some() => return Err(dup()),
            "terms" => f.terms = Some(val),
            "p" => f.p = Some(val.parse().map_err(|_| bad("group size p"))?),
            "k" => f.k = Some(val.parse().map_err(|_| bad("tenuity k"))?),
            "n" => f.n = Some(val.parse().map_err(|_| bad("result count n"))?),
            "gamma" => f.gamma = Some(val.parse().map_err(|_| bad("gamma"))?),
            other => {
                return Err(line_err(lineno, format!("unknown field `{other}`")));
            }
        }
    }
    Ok(f)
}

fn require<T>(lineno: usize, field: &str, value: Option<T>) -> Result<T> {
    value.ok_or_else(|| line_err(lineno, format!("missing required field `{field}`")))
}

fn parse_query(net: &AttributedGraph, lineno: usize, f: &Fields<'_>) -> Result<KtgQuery> {
    let terms = require(lineno, "terms", f.terms)?;
    // The engine's keyword-set type dedups silently (fine for
    // programmatic callers); in a workload file a repeated term is a
    // typo worth naming, like every other line-level mistake.
    let mut term_list: Vec<&str> = Vec::new();
    for term in terms.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        if term_list.contains(&term) {
            return Err(line_err(lineno, format!("duplicate query keyword `{term}`")));
        }
        term_list.push(term);
    }
    // One keyword order per `W_Q`: ids ascending, so permuted lines
    // parse to the same query and share one result-cache entry.
    let mut ids = net
        .query_keywords(term_list.iter().copied())
        .map_err(|e| line_err(lineno, e))?
        .ids()
        .to_vec();
    ids.sort_unstable();
    let keywords = QueryKeywords::new(ids).map_err(|e| line_err(lineno, e))?;
    KtgQuery::new(
        keywords,
        require(lineno, "p", f.p)?,
        require(lineno, "k", f.k)?,
        require(lineno, "n", f.n)?,
    )
    .map_err(|e| line_err(lineno, e))
}

fn parse_edge(
    net: &AttributedGraph,
    lineno: usize,
    rest: &mut std::str::SplitWhitespace<'_>,
) -> Result<(VertexId, VertexId)> {
    let mut endpoint = |name: &str| -> Result<VertexId> {
        let tok = rest
            .next()
            .ok_or_else(|| line_err(lineno, format!("missing vertex `{name}`")))?;
        let id: u32 =
            tok.parse().map_err(|_| line_err(lineno, format!("invalid vertex id `{tok}`")))?;
        if (id as usize) >= net.num_vertices() {
            return Err(line_err(
                lineno,
                format!("vertex {id} out of range for {} vertices", net.num_vertices()),
            ));
        }
        Ok(VertexId(id))
    };
    let u = endpoint("u")?;
    let v = endpoint("v")?;
    if let Some(extra) = rest.next() {
        return Err(line_err(lineno, format!("unexpected trailing token `{extra}`")));
    }
    if u == v {
        return Err(line_err(lineno, format!("self-loop at vertex {u}")));
    }
    Ok((u, v))
}

/// Parses one raw workload line. `Ok(None)` means the line carries no
/// item (blank, comment). All validation lives here so that
/// [`parse_workload`] is nothing but the loop plus the fault hook.
fn parse_line(
    net: &AttributedGraph,
    lineno: usize,
    raw: &str,
) -> Result<Option<WorkloadItem>> {
    // Accept CRLF input: a single trailing `\r` is line-ending framing,
    // not content. `str::lines()` only strips it when it also stripped a
    // `\n`, so a final line without a trailing newline (and every line a
    // network peer frames with bare CRLF) still carries it — and it must
    // be dropped *before* the byte cap so the cap measures content, and
    // before tokenizing so `n=1\r` does not fail integer parsing.
    let raw = raw.strip_suffix('\r').unwrap_or(raw);
    if raw.len() > MAX_LINE_BYTES {
        return Err(line_err(
            lineno,
            format!("line is {} bytes, exceeds {MAX_LINE_BYTES} bytes", raw.len()),
        ));
    }
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let Some(head) = tokens.next() else { return Ok(None) };
    let item = match head {
        "ktg" => {
            let f = parse_fields(lineno, tokens)?;
            if f.gamma.is_some() {
                return Err(line_err(lineno, "`gamma` is only valid on dktg lines"));
            }
            WorkloadItem::Ktg(parse_query(net, lineno, &f)?)
        }
        "dktg" => {
            let f = parse_fields(lineno, tokens)?;
            let base = parse_query(net, lineno, &f)?;
            let query =
                DktgQuery::new(base, f.gamma.unwrap_or(0.5)).map_err(|e| line_err(lineno, e))?;
            WorkloadItem::Dktg(query)
        }
        "insert" => {
            let (u, v) = parse_edge(net, lineno, &mut tokens)?;
            WorkloadItem::Insert(u, v)
        }
        "remove" => {
            let (u, v) = parse_edge(net, lineno, &mut tokens)?;
            WorkloadItem::Remove(u, v)
        }
        other => {
            return Err(line_err(
                lineno,
                format!("unknown directive `{other}` (expected ktg, dktg, insert, remove)"),
            ));
        }
    };
    Ok(Some(item))
}

/// Parses a workload script against a network's vocabulary and vertex
/// range.
///
/// Lines longer than [`MAX_LINE_BYTES`] are rejected outright. Parsing
/// is a [`ktg_common::fault`] injection site (`parse`): an injected
/// panic on a line is retried once with injection suppressed, so a
/// fault-armed run parses exactly what a clean run parses.
///
/// # Errors
/// [`KtgError::InvalidInput`] naming the offending line for malformed
/// syntax, unknown keywords, invalid query parameters, out-of-range
/// vertex ids, duplicate fields or keywords, trailing tokens, and
/// overlong lines.
pub fn parse_workload(text: &str, net: &AttributedGraph) -> Result<Vec<WorkloadItem>> {
    let mut items = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let parsed = ktg_common::fault::recoverable(
            ktg_common::fault::FaultSite::WorkloadParse,
            || parse_line(net, lineno, raw),
        )?;
        if let Some(item) = parsed {
            items.push(item);
        }
    }
    Ok(items)
}

/// Parses one request line exactly as [`parse_workload`] parses a file
/// line — same grammar, same `\r` handling, same byte cap, same
/// fault-injection site with retry-once recovery — reporting errors
/// against the caller-supplied line number.
///
/// This is the network server's per-line entry point: a connection is a
/// workload arriving one line at a time, and routing both paths through
/// [`parse_line`] is what keeps TCP responses byte-identical to
/// `ktg batch` on the same script.
///
/// # Errors
/// Exactly those of [`parse_workload`], for the single line.
pub fn parse_request_line(
    net: &AttributedGraph,
    lineno: usize,
    raw: &str,
) -> Result<Option<WorkloadItem>> {
    ktg_common::fault::recoverable(ktg_common::fault::FaultSite::WorkloadParse, || {
        parse_line(net, lineno, raw)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::serve::cache::CacheKey;

    #[test]
    fn parses_mixed_workload() {
        let net = fixtures::figure1();
        let text = "\
# warm-up
ktg terms=SN,QP,DQ p=3 k=1 n=2

dktg terms=GD,,QP p=2 k=2 n=3 gamma=0.25
insert 0 5
remove 1 2
ktg n=1 k=0 p=2 terms=SN
";
        let items = parse_workload(text, &net).unwrap();
        assert_eq!(items.len(), 5);
        let WorkloadItem::Ktg(q) = &items[0] else { panic!("expected ktg") };
        assert_eq!((q.p(), q.k(), q.n(), q.keywords().len()), (3, 1, 2, 3));
        let WorkloadItem::Dktg(dq) = &items[1] else { panic!("expected dktg") };
        assert!((dq.gamma() - 0.25).abs() < 1e-12);
        assert_eq!(dq.base().keywords().len(), 2, "empty list entries are skipped");
        assert!(matches!(items[2], WorkloadItem::Insert(VertexId(0), VertexId(5))));
        assert!(matches!(items[3], WorkloadItem::Remove(VertexId(1), VertexId(2))));
        let WorkloadItem::Ktg(q) = &items[4] else { panic!("expected ktg") };
        assert_eq!((q.p(), q.k(), q.n()), (2, 0, 1), "fields accept any order");
        assert!(items[0].is_query());
        assert!(!items[2].is_query());
    }

    /// `terms=` order never matters: permuted lines parse to the same
    /// `W_Q`, ids ascending, and so to one result-cache key.
    #[test]
    fn permuted_terms_parse_to_one_query() {
        let net = fixtures::figure1();
        let text = "\
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
ktg terms=GD,GQ,DQ,QP,SN p=3 k=1 n=2
dktg terms=QP,SN p=3 k=1 n=2
dktg terms=SN,QP p=3 k=1 n=2
";
        let items = parse_workload(text, &net).unwrap();
        let [WorkloadItem::Ktg(a), WorkloadItem::Ktg(b), WorkloadItem::Dktg(c), WorkloadItem::Dktg(d)] =
            &items[..]
        else {
            panic!("unexpected items {items:?}")
        };
        assert!(a.keywords().ids().is_sorted());
        assert_eq!(a.keywords(), b.keywords(), "W_Q is a set; one order per set");
        assert_eq!(CacheKey::ktg(a), CacheKey::ktg(b));
        assert_eq!(CacheKey::dktg(c), CacheKey::dktg(d));
    }

    #[test]
    fn gamma_defaults_to_half() {
        let net = fixtures::figure1();
        let items = parse_workload("dktg terms=SN p=2 k=1 n=2", &net).unwrap();
        let WorkloadItem::Dktg(dq) = &items[0] else { panic!("expected dktg") };
        assert!((dq.gamma() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn errors_name_the_line() {
        let net = fixtures::figure1();
        let check = |text: &str, needle: &str| {
            let err = parse_workload(text, &net).expect_err(needle).to_string();
            assert!(err.contains(needle), "`{err}` missing `{needle}`");
        };
        check("bogus 1 2", "unknown directive");
        check("ktg terms=NOPE p=3 k=1 n=1", "line 1");
        check("\n\nktg p=3 k=1 n=1", "line 3");
        check("ktg terms=SN p=0 k=1 n=1", "line 1");
        check("ktg terms=SN p=x k=1 n=1", "invalid group size");
        check("ktg terms=SN p=3 k=1 n=1 gamma=0.5", "only valid on dktg");
        check("insert 0", "missing vertex");
        check("insert 0 99", "out of range");
        check("remove a b", "invalid vertex id");
        check("ktg terms=SN p=3 k=1 n=1 q=7", "unknown field");
        check("ktg terms=SN p=3 k=1 n=1 extra", "expected key=value");
    }

    /// Every way a workload line can be malformed yields
    /// [`KtgError::InvalidInput`] naming the line — never a panic, never
    /// a different error kind.
    #[test]
    fn malformed_corpus_is_rejected_with_line_numbers() {
        let net = fixtures::figure1();
        // (line, expected message fragment)
        let corpus: &[(&str, &str)] = &[
            // Truncated: directive with no fields, or missing one field.
            ("ktg", "missing required field `terms`"),
            ("ktg terms=SN,QP", "missing required field `p`"),
            ("ktg terms=SN,QP p=3 k=1", "missing required field `n`"),
            ("dktg terms=SN p=2", "missing required field `k`"),
            ("insert", "missing vertex `u`"),
            ("insert 3", "missing vertex `v`"),
            // Bad integers: overflow, negative, float, garbage.
            ("ktg terms=SN p=99999999999999999999 k=1 n=1", "invalid group size"),
            ("ktg terms=SN p=-3 k=1 n=1", "invalid group size"),
            ("ktg terms=SN p=3 k=1.5 n=1", "invalid tenuity"),
            ("ktg terms=SN p=3 k=1 n=0x2", "invalid result count"),
            ("insert 1e2 3", "invalid vertex id"),
            // Bad floats: NaN and infinity parse as f64 but are invalid
            // gammas; `x` does not parse at all.
            ("dktg terms=SN p=2 k=1 n=1 gamma=NaN", "line 1"),
            ("dktg terms=SN p=2 k=1 n=1 gamma=inf", "line 1"),
            ("dktg terms=SN p=2 k=1 n=1 gamma=x", "invalid gamma"),
            // Duplicates: repeated field, repeated query keyword.
            ("ktg terms=SN p=3 p=4 k=1 n=1", "duplicate field `p`"),
            ("ktg terms=SN,QP,SN p=3 k=1 n=1", "duplicate query keyword `SN`"),
            ("dktg terms=SN p=2 k=1 n=1 gamma=0.5 gamma=0.5", "duplicate field `gamma`"),
            // Trailing junk after a complete edge update.
            ("insert 0 5 9", "unexpected trailing token `9`"),
            ("remove 1 2 oops", "unexpected trailing token `oops`"),
            // Self-loops: no graph has them, so no update can apply one.
            ("insert 3 3", "self-loop at vertex 3"),
            ("remove 5 5", "self-loop at vertex 5"),
        ];
        for (line, needle) in corpus {
            let err = parse_workload(line, &net).expect_err(line);
            assert!(
                matches!(err, KtgError::InvalidInput(_)),
                "`{line}` gave non-InvalidInput error: {err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains("line 1"), "`{line}` error lacks line number: {msg}");
            assert!(msg.contains(needle), "`{line}` gave `{msg}`, wanted `{needle}`");
        }

        // Overlong line: rejected by byte length before field parsing,
        // and the line number is still right when it is not the first.
        let long = format!("# ok\nktg terms={} p=3 k=1 n=1", "S".repeat(MAX_LINE_BYTES));
        let err = parse_workload(&long, &net).expect_err("overlong line");
        assert!(matches!(err, KtgError::InvalidInput(_)));
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains("exceeds 4096 bytes"), "{msg}");
    }

    /// CRLF corpus: `str::lines()` leaves the `\r` on a final line that
    /// lacks a trailing `\n` (it only strips `\r` together with `\n`),
    /// so CR-carrying lines reach the parser — from Windows-edited
    /// files and from network peers framing with bare CRLF alike. A
    /// trailing `\r` is framing, not content, and must parse everywhere:
    /// on queries, updates, comments, and blank lines.
    #[test]
    fn crlf_line_endings_parse() {
        let net = fixtures::figure1();
        // Final line, CR retained by `lines()`.
        let items = parse_workload("ktg terms=SN p=2 k=1 n=1\r", &net).unwrap();
        assert_eq!(items.len(), 1);
        assert!(items[0].is_query());
        // A whole CRLF-terminated file, including a CR-only blank line
        // and a CR-terminated comment and edge update.
        let items = parse_workload(
            "# crlf file\r\nktg terms=SN,QP p=2 k=1 n=1\r\n\r\ninsert 0 5\r\ndktg terms=GD p=2 k=1 n=1 gamma=0.25\r",
            &net,
        )
        .unwrap();
        assert_eq!(items.len(), 3);
        assert!(matches!(items[1], WorkloadItem::Insert(VertexId(0), VertexId(5))));
        // The error line numbers are unaffected by CRLF framing.
        let err = parse_workload("# a\r\nbogus\r\n", &net).expect_err("bad directive");
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains("unknown directive"), "{msg}");
    }

    /// Regression for the cap boundary under CRLF: the cap must measure
    /// content bytes, after the framing `\r` is stripped.
    #[test]
    fn byte_cap_excludes_crlf_framing() {
        let net = fixtures::figure1();
        // Exactly MAX_LINE_BYTES of content parses...
        let pad = MAX_LINE_BYTES - "ktg terms=SN p=2 k=1 n=1".len();
        let exact = format!("ktg terms=SN p=2 k=1 n=1{}", " ".repeat(pad));
        assert_eq!(exact.len(), MAX_LINE_BYTES);
        assert_eq!(parse_workload(&exact, &net).unwrap().len(), 1);
        // ...including with a trailing `\r` pushing the raw line to
        // MAX_LINE_BYTES + 1 (pre-fix: wrongly cap-rejected).
        let exact_cr = format!("{exact}\r");
        assert_eq!(parse_workload(&exact_cr, &net).unwrap().len(), 1);
        // One content byte over the cap is rejected, the reported size is
        // the content size (not content + `\r`), and the line number is
        // right.
        let over = format!("# lead\n{} \r", exact);
        let err = parse_workload(&over, &net).expect_err("over cap");
        let msg = err.to_string();
        assert!(
            msg.contains("line 2")
                && msg.contains(&format!("line is {} bytes", MAX_LINE_BYTES + 1)),
            "{msg}"
        );
    }

    /// The server's per-line entry point shares the file parser's
    /// grammar, CR handling, and error shape verbatim.
    #[test]
    fn request_line_matches_file_grammar() {
        let net = fixtures::figure1();
        let item = parse_request_line(&net, 7, "ktg terms=SN p=2 k=1 n=1\r").unwrap();
        assert!(item.is_some_and(|i| i.is_query()));
        assert!(parse_request_line(&net, 7, "# comment").unwrap().is_none());
        assert!(parse_request_line(&net, 7, "").unwrap().is_none());
        let err = parse_request_line(&net, 7, "bogus").expect_err("bad directive");
        let msg = err.to_string();
        assert!(msg.contains("line 7") && msg.contains("unknown directive"), "{msg}");
    }

    /// Seeded garbage lines: the parser must return `InvalidInput` or
    /// (coincidentally) parse, but never panic and never surface any
    /// other error kind.
    #[test]
    fn fuzzed_garbage_lines_never_panic() {
        let net = fixtures::figure1();
        let mut rng = ktg_common::SplitMix64::new(0xC0FFEE);
        for _ in 0..256 {
            let len = (rng.next_u64() % 120) as usize;
            let line: String = (0..len)
                .map(|_| {
                    // Printable ASCII plus a bias toward the parser's
                    // structural characters.
                    let r = rng.next_u64();
                    match r % 8 {
                        0 => '=',
                        1 => ',',
                        2 => ' ',
                        _ => char::from(0x20 + (r >> 8) as u8 % 0x5F),
                    }
                })
                .collect();
            if let Err(err) = parse_workload(&line, &net) {
                assert!(
                    matches!(err, KtgError::InvalidInput(_)),
                    "garbage line `{line}` gave non-InvalidInput error: {err:?}"
                );
            }
        }
    }
}
