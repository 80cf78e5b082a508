//! The reference rendering: every distinct query answered once, in
//! process, with the cache off, and rendered by `ktg batch`'s renderer.

use crate::drive::normalize;
use ktg_cli::commands::write_outcome;
use ktg_core::serve::{parse_request_line, ItemOutcome, ServeOptions, ServeSession};
use ktg_core::AttributedGraph;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The options `ktg serve --threads 1` runs with, cache on or off.
pub fn serve_options(use_cache: bool) -> ServeOptions {
    ServeOptions { threads: 1, use_cache, ..ServeOptions::default() }
}

/// Opens a session over a bundle, as `ktg serve --bundle` does.
pub fn open_session(bundle: &Path, use_cache: bool) -> Result<ServeSession, String> {
    let file = std::fs::File::open(bundle).map_err(|e| format!("open bundle: {e}"))?;
    let bundle = ktg_index::persist::load_bundle(file).map_err(|e| format!("load bundle: {e}"))?;
    let net = AttributedGraph::with_store(bundle.graph, bundle.vocab, bundle.keywords);
    Ok(ServeSession::with_index(net, serve_options(use_cache), bundle.index))
}

/// Renders one outcome as its normalized response block.
pub fn render(lineno: usize, outcome: &ItemOutcome) -> Result<String, String> {
    let mut out = Vec::new();
    write_outcome(&mut out, lineno, outcome, 0).map_err(|e| format!("render: {e}"))?;
    Ok(normalize(&String::from_utf8_lossy(&out)))
}

/// Expected response of every query slot, then of every update line
/// (each inserts an absent edge or removes a present one).
///
/// Answers do not depend on the order queries are asked in (the
/// workloads keep every answer independent of the updates too), so two
/// threads share the distinct queries.
pub fn expected(bundle: &Path, queries: &[String]) -> Result<Vec<String>, String> {
    let session = open_session(bundle, false)?;
    let next = AtomicUsize::new(0);
    let answer = |i: usize| -> Result<String, String> {
        let item = parse_request_line(session.net(), 1, &queries[i])
            .map_err(|e| format!("reference parse: {e}"))?
            .ok_or("blank query line")?;
        let outcome = session.answer_query(&item);
        let exact = match &outcome {
            ItemOutcome::Ktg(a) => a.status.is_exact(),
            ItemOutcome::Dktg(a) => a.status.is_exact(),
            _ => false,
        };
        if !exact {
            return Err(format!("reference answer for `{}` is not exact", queries[i]));
        }
        render(1, &outcome)
    };
    let parts: Vec<Vec<(usize, Result<String, String>)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            return done;
                        }
                        done.push((i, answer(i)));
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("reference thread panicked")).collect()
    });
    let mut out = vec![String::new(); queries.len()];
    for (i, rendered) in parts.into_iter().flatten() {
        out[i] = rendered?;
    }
    out.push(render(1, &ItemOutcome::Update { applied: true })?);
    Ok(out)
}
