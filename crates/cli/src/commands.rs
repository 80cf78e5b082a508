//! Command implementations.
//!
//! Each command takes the parsed flags and a writer; file-system paths
//! come exclusively from flags so tests can point everything at temp
//! directories.

use crate::args::{Command, ParsedArgs};
use crate::RunStatus;
use ktg_common::{CompletionStatus, KtgError, Result, VertexId};
use ktg_core::dktg::{self, DktgQuery};
use ktg_core::serve::{self, ItemOutcome, ServeOptions, ServeSession};
use ktg_core::{
    bb, candidates, explain, multi_query, verify, AttributedGraph, KtgQuery, MemberOrdering,
};
use ktg_datasets::{DatasetProfile, QueryGen};
use ktg_graph::{io as graph_io, stats};
use ktg_index::{persist, BfsOracle, DistanceOracle, NlIndex, NlrnlIndex};
use ktg_keywords::io as keyword_io;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Dispatches a parsed command line, reporting whether every answer was
/// exact ([`RunStatus::Complete`]), some were degraded or failed
/// ([`RunStatus::Degraded`] — the binary exits 3), or some were shed by
/// a draining server ([`RunStatus::Overloaded`] — exit 4, taking
/// precedence over degradation).
pub fn dispatch(args: &ParsedArgs, out: &mut dyn Write) -> Result<RunStatus> {
    match args.command {
        Command::Generate => generate(args, out).map(|()| RunStatus::Complete),
        Command::Stats => stats_cmd(args, out).map(|()| RunStatus::Complete),
        Command::Index => index_cmd(args, out).map(|()| RunStatus::Complete),
        Command::Query => query_cmd(args, out, false),
        Command::Dktg => query_cmd(args, out, true),
        Command::Batch => batch_cmd(args, out),
        Command::Serve => crate::serve::serve_cmd(args, out),
    }
}

/// `--deadline-ms N`: per-query wall-clock budget (absent = unbudgeted).
fn deadline_flag(args: &ParsedArgs) -> Result<Option<u64>> {
    match args.optional("deadline-ms") {
        None => Ok(None),
        Some(_) => args.required_num::<u64>("deadline-ms").map(Some),
    }
}

/// `--node-budget N`: deterministic search-node budget (absent = none).
/// Unlike a deadline this degrades reproducibly, which is what the CI
/// smoke tests and scripted benchmarks want.
fn node_budget_flag(args: &ParsedArgs) -> Result<Option<u64>> {
    match args.optional("node-budget") {
        None => Ok(None),
        Some(_) => args.required_num::<u64>("node-budget").map(Some),
    }
}

fn ordering_flag(args: &ParsedArgs) -> Result<MemberOrdering> {
    match args.optional("algo").unwrap_or("vkc-deg") {
        "qkc" => Ok(MemberOrdering::Qkc),
        "vkc" => Ok(MemberOrdering::Vkc),
        "vkc-deg" => Ok(MemberOrdering::VkcDeg),
        other => Err(KtgError::input(format!(
            "unknown algorithm '{other}' (qkc|vkc|vkc-deg)"
        ))),
    }
}

fn profile_by_name(name: &str) -> Result<DatasetProfile> {
    match name {
        "dblp" => Ok(DatasetProfile::Dblp),
        "gowalla" => Ok(DatasetProfile::Gowalla),
        "brightkite" => Ok(DatasetProfile::Brightkite),
        "flickr" => Ok(DatasetProfile::Flickr),
        "twitter" => Ok(DatasetProfile::Twitter),
        "dblp-1m" => Ok(DatasetProfile::DblpLarge),
        other => Err(KtgError::input(format!(
            "unknown profile '{other}' (dblp|gowalla|brightkite|flickr|twitter|dblp-1m)"
        ))),
    }
}

/// `ktg generate --profile NAME --out DIR [--scale N] [--seed N]`, or the
/// streaming form `ktg generate --sbm-n N --sbm-blocks B --out DIR
/// [--sbm-pin P] [--sbm-pout P] [--chunk-capacity N] [--seed N]` which
/// builds a planted-partition graph through the bounded-memory chunked
/// pipeline (region-seeded edge sampling + external-sort CSR assembly) —
/// the generator the 10M-vertex scale story uses.
fn generate(args: &ParsedArgs, out: &mut dyn Write) -> Result<()> {
    if args.optional("sbm-n").is_some() {
        return generate_sbm(args, out);
    }
    let profile = profile_by_name(args.required("profile")?)?;
    let out_dir = args.required("out")?;
    let scale: usize = args.num_or("scale", 100)?;
    let seed: u64 = args.num_or("seed", 42)?;

    let net = profile.instantiate(scale, seed);
    std::fs::create_dir_all(out_dir)?;
    let edges_path = Path::new(out_dir).join("edges.txt");
    let keywords_path = Path::new(out_dir).join("keywords.txt");
    graph_io::write_edge_list(net.graph(), File::create(&edges_path)?)?;
    keyword_io::write_keywords(net.vocab(), net.keywords(), File::create(&keywords_path)?)?;

    writeln!(out, "generated {profile} at scale 1/{scale} (seed {seed})")?;
    writeln!(out, "  graph:    {}", stats::summary(net.graph()))?;
    writeln!(out, "  edges:    {}", edges_path.display())?;
    writeln!(out, "  keywords: {} ({} terms)", keywords_path.display(), net.vocab().len())?;
    Ok(())
}

/// The `--sbm-*` arm of [`generate`].
fn generate_sbm(args: &ParsedArgs, out: &mut dyn Write) -> Result<()> {
    let params = ktg_datasets::sbm::SbmParams {
        n: args.required_num("sbm-n")?,
        blocks: args.num_or("sbm-blocks", 100)?,
        p_in: args.num_or("sbm-pin", 0.1)?,
        p_out: args.num_or("sbm-pout", 0.0)?,
    };
    if params.blocks < 1 || params.blocks > params.n {
        return Err(KtgError::input("--sbm-blocks must be in 1..=--sbm-n"));
    }
    if !(0.0..=1.0).contains(&params.p_in) || !(0.0..=1.0).contains(&params.p_out) {
        return Err(KtgError::input("--sbm-pin/--sbm-pout must be in [0, 1]"));
    }
    let out_dir = args.required("out")?;
    let seed: u64 = args.num_or("seed", 42)?;
    let chunk: usize = args.num_or("chunk-capacity", 1 << 20)?;

    let graph = ktg_datasets::sbm::planted_partition_chunked(&params, seed, chunk)?;
    let model = ktg_datasets::keywords::KeywordModel::default();
    let (vocab, vk) = ktg_datasets::keywords::assign_zipf_chunked(params.n, &model, seed);
    std::fs::create_dir_all(out_dir)?;
    let edges_path = Path::new(out_dir).join("edges.txt");
    let keywords_path = Path::new(out_dir).join("keywords.txt");
    graph_io::write_edge_list(&graph, File::create(&edges_path)?)?;
    keyword_io::write_keywords(&vocab, &vk, File::create(&keywords_path)?)?;

    writeln!(
        out,
        "generated sbm: {} vertices, {} blocks, p_in {}, p_out {} (seed {seed}, chunked)",
        params.n, params.blocks, params.p_in, params.p_out
    )?;
    writeln!(out, "  graph:    {}", stats::summary(&graph))?;
    writeln!(out, "  edges:    {}", edges_path.display())?;
    writeln!(out, "  keywords: {} ({} terms)", keywords_path.display(), vocab.len())?;
    Ok(())
}

/// Loads an attributed network from `--edges` (+ optional `--keywords`).
pub(crate) fn load_network(args: &ParsedArgs) -> Result<AttributedGraph> {
    load_network_ex(args).map(|(net, _)| net)
}

/// Loads an attributed network plus any pre-built NLRNL index that rode
/// along: from `--bundle FILE` (one binary file, O(I/O) reload) when
/// given, otherwise from `--edges` (+ optional `--keywords`) text files.
pub(crate) fn load_network_ex(args: &ParsedArgs) -> Result<(AttributedGraph, Option<NlrnlIndex>)> {
    if let Some(path) = args.optional("bundle") {
        let bundle = persist::load_bundle(File::open(path)?)?;
        let net = AttributedGraph::new(bundle.graph, bundle.vocab, bundle.keywords);
        return Ok((net, bundle.index));
    }
    load_network_from_files(args).map(|net| (net, None))
}

/// The text-file arm of [`load_network_ex`]: always reads
/// `--edges`/`--keywords`, never `--bundle` (which `ktg index` uses as an
/// *output* path).
fn load_network_from_files(args: &ParsedArgs) -> Result<AttributedGraph> {
    let edges = args.required("edges")?;
    let loaded = graph_io::read_edge_list(File::open(edges)?)?;
    let n = loaded.graph.num_vertices();
    let (vocab, vk) = match args.optional("keywords") {
        Some(path) => keyword_io::read_keywords(n, File::open(path)?)?,
        None => {
            // No profiles supplied: synthesize deterministic ones so the
            // query commands still work for quick experiments.
            let model = ktg_datasets::keywords::KeywordModel::default();
            ktg_datasets::keywords::assign_zipf(n, &model, 42)
        }
    };
    Ok(AttributedGraph::new(loaded.graph, vocab, vk))
}

/// `ktg stats --edges FILE [--keywords FILE]`
fn stats_cmd(args: &ParsedArgs, out: &mut dyn Write) -> Result<()> {
    let net = load_network(args)?;
    writeln!(out, "graph: {}", stats::summary(net.graph()))?;
    let comps = ktg_graph::components::Components::compute(net.graph());
    writeln!(out, "components: {} (largest {})", comps.count(), comps.largest())?;
    let hops = stats::sample_hop_stats(net.graph(), 16.min(net.num_vertices()));
    writeln!(out, "hops (sampled): max {} mean {:.2}", hops.max_hops, hops.mean_hops)?;
    writeln!(out, "vocabulary: {} terms", net.vocab().len())?;
    let pairs = net.keywords().num_pairs();
    writeln!(
        out,
        "keyword pairs: {} ({:.2} per vertex)",
        pairs,
        pairs as f64 / net.num_vertices().max(1) as f64
    )?;
    Ok(())
}

/// `ktg index --edges FILE --bundle FILE [--keywords FILE] [--threads N]`
///
/// Writes the whole network (graph, vocabulary, keyword arena, NLRNL
/// index) as one binary file that `query`/`dktg`/`batch`/`serve --bundle`
/// reload without re-parsing text or rebuilding the index.
fn index_cmd(args: &ParsedArgs, out: &mut dyn Write) -> Result<()> {
    let path = args.required("bundle")?;
    let net = load_network_from_files(args)?;
    let graph = net.graph();
    let threads: usize = args.num_or("threads", 0)?;
    let index = if threads == 0 {
        NlrnlIndex::build(graph)
    } else {
        NlrnlIndex::build_with_threads(graph, threads)
    };
    persist::save_bundle(graph, net.vocab(), net.keywords(), Some(&index), File::create(path)?)?;
    writeln!(out, "bundled graph + keywords + index into {path}")?;
    let space = index.space();
    writeln!(
        out,
        "built NLRNL over {} vertices in {:?}: {} bytes ({} forward, {} reverse)",
        graph.num_vertices(),
        index.build_stats().elapsed,
        space.total_bytes(),
        space.forward_bytes,
        space.reverse_bytes,
    )?;
    Ok(())
}

/// `ktg batch --workload FILE --edges FILE [--keywords FILE] [--threads N]
/// [--cache-entries N] [--no-cache] [--deadline-ms N] [--node-budget N]`
///
/// Replays a workload file (see `ktg_core::serve::workload` for the
/// format) through a [`ServeSession`] running the default engine
/// ([`ServeOptions::default`]): queries fan out across worker threads,
/// repeated queries hit the result cache, and `insert`/`remove` lines
/// edit the graph between query runs (dropping the cached answers and
/// conflict rows each edit can change). Every
/// query is solved; answers are byte-identical to running each query
/// individually.
fn batch_cmd(args: &ParsedArgs, out: &mut dyn Write) -> Result<RunStatus> {
    let (net, preloaded) = load_network_ex(args)?;
    let text = std::fs::read_to_string(args.required("workload")?)?;
    let items = serve::parse_workload(&text, &net)?;

    let options = serve_options_from_flags(args)?;
    writeln!(
        out,
        "batch: {} items, {} threads, cache {}",
        items.len(),
        if options.threads == 0 { "auto".to_string() } else { options.threads.to_string() },
        if options.use_cache {
            format!("on ({} entries)", options.cache_entries)
        } else {
            "off".to_string()
        }
    )?;

    let mut session = ServeSession::with_index(net, options, preloaded);
    let outcomes = session.run(&items);
    let (mut degraded, mut failed) = (0usize, 0usize);
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            ItemOutcome::Ktg(ans) => degraded += usize::from(!ans.status.is_exact()),
            ItemOutcome::Dktg(ans) => degraded += usize::from(!ans.status.is_exact()),
            ItemOutcome::Failed { .. } => failed += 1,
            ItemOutcome::Update { .. } => {}
        }
        write_outcome(out, i + 1, outcome, 0)?;
    }
    let stats = session.stats();
    writeln!(
        out,
        "served: {} answers from cache, {} fresh; {} conflict-row hits; updates dropped {} answers and {} rows; epoch {}",
        stats.result_hits,
        stats.result_misses,
        stats.row_hits,
        stats.result_reclaimed,
        stats.row_reclaimed,
        stats.epoch
    )?;
    if degraded + failed > 0 {
        writeln!(out, "partial: {degraded} degraded, {failed} failed")?;
        return Ok(RunStatus::Degraded);
    }
    Ok(RunStatus::Complete)
}

/// Writes the canonical rendering of one workload outcome — the shared
/// answer text of `ktg batch` and of every `ktg serve` TCP response
/// (the differential suite holds the two byte-identical). `_retired` is
/// ignored: it named the server's `--max-inflight` bound in a shed line,
/// and every caller passes 0.
pub fn write_outcome(
    out: &mut dyn Write,
    lineno: usize,
    outcome: &ItemOutcome,
    _retired: usize,
) -> Result<()> {
    let status_marker = |status: &CompletionStatus| {
        if status.is_exact() { String::new() } else { format!(" [{status}]") }
    };
    let write_groups = |out: &mut dyn Write, groups: &[ktg_core::Group]| -> Result<()> {
        for (rank, g) in groups.iter().enumerate() {
            writeln!(
                out,
                "    #{}: {:?} — QKC {}",
                rank + 1,
                g.members().iter().map(|v| v.0).collect::<Vec<_>>(),
                g.coverage_count()
            )?;
        }
        Ok(())
    };
    match outcome {
        ItemOutcome::Ktg(ans) => {
            writeln!(
                out,
                "[{lineno}] ktg: {} groups{}{}",
                ans.groups.len(),
                if ans.cached { " [cached]" } else { "" },
                status_marker(&ans.status)
            )?;
            write_groups(out, &ans.groups)?;
        }
        ItemOutcome::Dktg(ans) => {
            writeln!(
                out,
                "[{lineno}] dktg: {} groups, score {:.3} (min QKC {:.3}, dL {:.3}){}{}",
                ans.groups.len(),
                ans.score,
                ans.min_qkc,
                ans.diversity,
                if ans.cached { " [cached]" } else { "" },
                status_marker(&ans.status)
            )?;
            write_groups(out, &ans.groups)?;
        }
        ItemOutcome::Update { applied } => {
            writeln!(out, "[{lineno}] update: {}", if *applied { "applied" } else { "no-op" })?;
        }
        ItemOutcome::Failed { reason } => {
            writeln!(out, "[{lineno}] failed: {reason}")?;
        }
    }
    Ok(())
}

/// Builds [`ServeOptions`] from the session flags shared by
/// `ktg batch` and the `ktg serve` server mode: `--threads`,
/// `--no-cache`, `--cache-entries`, `--deadline-ms`, `--node-budget`.
/// The engine is [`ServeOptions::default`]'s, plus the two budgets.
pub(crate) fn serve_options_from_flags(args: &ParsedArgs) -> Result<ServeOptions> {
    let mut engine = ServeOptions::default().engine.with_deadline_ms(deadline_flag(args)?);
    engine.node_budget = node_budget_flag(args)?;
    Ok(ServeOptions {
        threads: args.num_or("threads", 0)?,
        use_cache: args.optional("no-cache").is_none(),
        cache_entries: args.num_or("cache-entries", 4096)?,
        engine,
    })
}

/// Shared by `query` and `dktg`.
fn query_cmd(args: &ParsedArgs, out: &mut dyn Write, diversified: bool) -> Result<RunStatus> {
    let (net, preloaded) = load_network_ex(args)?;
    let p: usize = args.num_or("p", 3)?;
    let k: u32 = args.num_or("k", 2)?;
    let n: usize = args.num_or("n", 5)?;

    // Query keywords: explicit --terms, or --random-terms SIZE.
    let keywords = if args.optional("terms").is_some() {
        let terms = args.list("terms")?;
        net.query_keywords(terms.iter().map(String::as_str))?
    } else {
        let size: usize = args.num_or("random-terms", 0)?;
        if size == 0 {
            return Err(KtgError::query(
                "provide --terms a,b,c or --random-terms SIZE".to_string(),
            ));
        }
        let seed: u64 = args.num_or("seed", 42)?;
        QueryGen::new(&net, seed).query(size)?
    };
    let query = KtgQuery::new(keywords.clone(), p, k, n)?;

    // Oracle selection; NLRNL reuses the index a `--bundle` carries.
    let oracle: Box<dyn DistanceOracle> = match args.optional("oracle").unwrap_or("nlrnl") {
        "bfs" => Box::new(BfsOracle::new(net.graph())),
        "nl" => Box::new(NlIndex::build(net.graph())),
        "nlrnl" => match preloaded {
            Some(index) => Box::new(index),
            None => Box::new(NlrnlIndex::build(net.graph())),
        },
        other => {
            return Err(KtgError::input(format!("unknown oracle '{other}' (bfs|nl|nlrnl)")))
        }
    };
    let oracle = oracle.as_ref();

    let ordering = ordering_flag(args)?;
    // `--threads N` pins the worker count (0 = all cores, KTG_THREADS
    // honored). The results are byte-identical to the sequential engine —
    // only the wall clock changes.
    let threads: usize = args.num_or("threads", 1)?;
    let bitmap_threshold: usize =
        args.num_or("bitmap-threshold", bb::DEFAULT_BITMAP_THRESHOLD)?;
    let mut opts = bb::BbOptions::vkc()
        .with_ordering(ordering)
        .with_threads(threads)
        .with_bitmap_threshold(bitmap_threshold)
        .with_deadline_ms(deadline_flag(args)?);
    opts.node_budget = node_budget_flag(args)?;

    let masks = net.compile(query.keywords());
    let mut cands = candidates::collect_vec(net.graph(), &masks);
    if let Some(authors) = args.optional("authors") {
        let authors: Vec<VertexId> = authors
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse::<u32>()
                    .map(VertexId)
                    .map_err(|_| KtgError::input(format!("bad author id '{s}'")))
            })
            .collect::<Result<_>>()?;
        let removed = multi_query::restrict_candidates(&oracle, &authors, k, &mut cands);
        writeln!(out, "excluded {removed} candidates within {k} hops of the authors")?;
    }

    let term_list: Vec<&str> = keywords.ids().iter().map(|&kw| net.vocab().term(kw)).collect();
    writeln!(
        out,
        "{} query ⟨W_Q={{{}}}, p={p}, k={k}, N={n}⟩ over {} candidates",
        if diversified { "DKTG" } else { "KTG" },
        term_list.join(", "),
        cands.len()
    )?;

    let status = if diversified {
        let gamma: f64 = args.num_or("gamma", 0.5)?;
        let dq = DktgQuery::new(query.clone(), gamma)?;
        let result = dktg::solve_with_candidates(&dq, &oracle, &mut cands, &opts);
        if verify::checked_mode_enabled() {
            let report = verify::audit_dktg_results(&net, &dq, &result.groups);
            assert!(report.is_ok(), "checked-mode verification failed: {report}");
            writeln!(out, "checked mode: {report}")?;
        }
        writeln!(
            out,
            "score = {:.3} (min QKC {:.3}, dL {:.3}) — {} groups",
            result.score,
            result.min_qkc,
            result.diversity,
            result.groups.len()
        )?;
        for (rank, g) in result.groups.iter().enumerate() {
            write_group(out, &net, &keywords, &masks, rank, g, args)?;
        }
        result.status
    } else {
        // `solve_prepared` keeps the graph in reach so the conflict-bitmap
        // kernel can replace per-pair oracle probes for small pools.
        let result = bb::solve_prepared(&net, &query, &oracle, cands, &opts);
        if verify::checked_mode_enabled() {
            let report = verify::audit_results(&net, &query, &result.groups);
            assert!(report.is_ok(), "checked-mode verification failed: {report}");
            writeln!(out, "checked mode: {report}")?;
        }
        writeln!(out, "{} groups (explored {} nodes)", result.groups.len(), result.stats.nodes)?;
        for (rank, g) in result.groups.iter().enumerate() {
            write_group(out, &net, &keywords, &masks, rank, g, args)?;
        }
        result.status
    };
    // Machine-greppable completion status: `exact` or `degraded(<why>)` —
    // the groups above are valid either way, a degraded run just may not
    // have proven optimality before its budget fired.
    writeln!(out, "status: {status}")?;
    Ok(if status.is_exact() { RunStatus::Complete } else { RunStatus::Degraded })
}

fn write_group(
    out: &mut dyn Write,
    net: &AttributedGraph,
    keywords: &ktg_keywords::QueryKeywords,
    masks: &ktg_keywords::QueryMasks,
    rank: usize,
    group: &ktg_core::Group,
    args: &ParsedArgs,
) -> Result<()> {
    writeln!(
        out,
        "#{}: {:?} — QKC {}/{}",
        rank + 1,
        group.members().iter().map(|v| v.0).collect::<Vec<_>>(),
        group.coverage_count(),
        keywords.len()
    )?;
    if args.optional("explain").is_some_and(|v| v == "true" || v == "1") {
        let ex = explain::explain(net, keywords, masks, group);
        for line in ex.to_string().lines() {
            writeln!(out, "    {line}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_with_status(parts: &[&str]) -> Result<(RunStatus, String)> {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        let parsed = parse(&argv)?;
        let mut buf = Vec::new();
        let status = dispatch(&parsed, &mut buf)?;
        Ok((status, String::from_utf8(buf).expect("utf8 output")))
    }

    fn run_to_string(parts: &[&str]) -> Result<String> {
        run_with_status(parts).map(|(_, text)| text)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ktg-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generate_stats_index_query_roundtrip() {
        let dir = temp_dir("roundtrip");
        let out = dir.to_str().unwrap();

        let gen = run_to_string(&[
            "generate", "--profile", "brightkite", "--scale", "400", "--seed", "7", "--out", out,
        ])
        .unwrap();
        assert!(gen.contains("generated brightkite"));
        let edges = dir.join("edges.txt");
        let keywords = dir.join("keywords.txt");
        assert!(edges.exists() && keywords.exists());

        let stats = run_to_string(&[
            "stats", "--edges", edges.to_str().unwrap(), "--keywords", keywords.to_str().unwrap(),
        ])
        .unwrap();
        assert!(stats.contains("graph: |V|="));
        assert!(stats.contains("vocabulary:"));

        let bundle = dir.join("net.bundle");
        let idx = run_to_string(&[
            "index",
            "--edges", edges.to_str().unwrap(),
            "--keywords", keywords.to_str().unwrap(),
            "--bundle", bundle.to_str().unwrap(),
        ])
        .unwrap();
        assert!(idx.contains("built NLRNL"));
        assert!(bundle.exists());

        let q = run_to_string(&[
            "query",
            "--bundle", bundle.to_str().unwrap(),
            "--random-terms", "5",
            "-p", "3", "-k", "1", "-n", "3",
            "--explain", "true",
        ])
        .unwrap();
        assert!(q.contains("KTG query"));
        assert!(q.contains("#1:"), "query found no groups:\n{q}");

        let d = run_to_string(&[
            "dktg",
            "--edges", edges.to_str().unwrap(),
            "--keywords", keywords.to_str().unwrap(),
            "--random-terms", "5",
            "-p", "3", "-k", "1", "-n", "2",
            "--gamma", "0.5",
        ])
        .unwrap();
        assert!(d.contains("DKTG query"));
        assert!(d.contains("score ="));

        std::fs::remove_dir_all(&dir).ok();
    }


    #[test]
    fn text_and_bundle_are_differential() {
        let dir = temp_dir("bundle");
        let out = dir.to_str().unwrap();
        // Chunked SBM generation: block-diagonal (p_out 0) keeps every
        // BFS inside a small component, so indexing stays fast.
        let gen = run_to_string(&[
            "generate", "--sbm-n", "600", "--sbm-blocks", "30",
            "--sbm-pin", "0.2", "--sbm-pout", "0.0",
            "--seed", "7", "--out", out,
        ])
        .unwrap();
        assert!(gen.contains("generated sbm: 600 vertices"), "{gen}");
        let edges = dir.join("edges.txt");
        let keywords = dir.join("keywords.txt");

        let workload = dir.join("workload.txt");
        std::fs::write(
            &workload,
            "\
ktg terms=t0,t1,t2 p=2 k=1 n=2
dktg terms=t0,t1,t2 p=2 k=1 n=2 gamma=0.5
insert 0 1
ktg terms=t0,t1,t2 p=2 k=1 n=2
",
        )
        .unwrap();
        let base = [
            "batch",
            "--workload", workload.to_str().unwrap(),
            "--edges", edges.to_str().unwrap(),
            "--keywords", keywords.to_str().unwrap(),
            "--threads", "1",
        ];
        let answers = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with('[') || l.starts_with("    #"))
                .map(String::from)
                .collect()
        };
        let from_text = answers(&run_to_string(&base).unwrap());
        assert!(!from_text.is_empty());

        // Bundle the network + index, then serve the same workload from
        // the bundle — byte-identical.
        let bundle = dir.join("net.bundle");
        let built = run_to_string(&[
            "index",
            "--edges", edges.to_str().unwrap(),
            "--keywords", keywords.to_str().unwrap(),
            "--bundle", bundle.to_str().unwrap(),
        ])
        .unwrap();
        assert!(built.contains("bundled graph + keywords + index"), "{built}");
        let from_bundle = run_to_string(&[
            "batch",
            "--workload", workload.to_str().unwrap(),
            "--bundle", bundle.to_str().unwrap(),
            "--threads", "1",
        ])
        .unwrap();
        assert_eq!(answers(&from_bundle), from_text, "bundle diverged from text");

        // Query straight off a bundle (index reused, no rebuild).
        let q = run_to_string(&[
            "query",
            "--bundle", bundle.to_str().unwrap(),
            "--terms", "t0,t1,t2",
            "-p", "2", "-k", "1", "-n", "2",
        ])
        .unwrap();
        assert!(q.contains("KTG query"), "{q}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_profile_is_a_clean_error() {
        let err = run_to_string(&["generate", "--profile", "nope", "--out", "/tmp/x"]);
        assert!(err.is_err());
    }

    #[test]
    fn query_requires_terms_or_random() {
        let dir = temp_dir("noterms");
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "generate", "--profile", "brightkite", "--scale", "800", "--seed", "1", "--out", out,
        ])
        .unwrap();
        let edges = dir.join("edges.txt");
        let err = run_to_string(&["query", "--edges", edges.to_str().unwrap()]);
        assert!(err.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_flag_returns_identical_groups() {
        let dir = temp_dir("parallel");
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "generate", "--profile", "brightkite", "--scale", "400", "--seed", "11", "--out", out,
        ])
        .unwrap();
        let edges = dir.join("edges.txt");
        let keywords = dir.join("keywords.txt");
        let base = [
            "query",
            "--edges", edges.to_str().unwrap(),
            "--keywords", keywords.to_str().unwrap(),
            "--random-terms", "5",
            "-p", "3", "-k", "1", "-n", "3",
        ];
        // The "#rank: members" lines must be byte-identical across thread
        // counts and kernels; stats lines (node counts) legitimately vary.
        let groups = |text: &str| -> Vec<String> {
            text.lines().filter(|l| l.starts_with('#')).map(String::from).collect()
        };
        let mut seq = base.to_vec();
        seq.extend(["--threads", "1"]);
        let sequential = groups(&run_to_string(&seq).unwrap());
        assert!(!sequential.is_empty());
        for extra in [
            &["--threads", "4"][..],
            &["--threads", "0"][..],
            &["--threads", "4", "--bitmap-threshold", "0"][..],
        ] {
            let mut argv = base.to_vec();
            argv.extend(extra.iter().copied());
            assert_eq!(groups(&run_to_string(&argv).unwrap()), sequential, "{extra:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_replays_workload_and_caches() {
        let dir = temp_dir("batch");
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "generate", "--profile", "brightkite", "--scale", "400", "--seed", "7", "--out", out,
        ])
        .unwrap();
        let edges = dir.join("edges.txt");
        let keywords = dir.join("keywords.txt");
        // Terms t0.. exist in every synthetic profile's vocabulary.
        let workload = dir.join("workload.txt");
        std::fs::write(
            &workload,
            "\
# repeated query with an update in between
ktg terms=t0,t1,t2 p=2 k=1 n=2
ktg terms=t0,t1,t2 p=2 k=1 n=2
dktg terms=t0,t1,t2 p=2 k=1 n=2 gamma=0.5
insert 0 1
ktg terms=t0,t1,t2 p=2 k=1 n=2
",
        )
        .unwrap();
        let base = [
            "batch",
            "--workload", workload.to_str().unwrap(),
            "--edges", edges.to_str().unwrap(),
            "--keywords", keywords.to_str().unwrap(),
        ];
        let mut seq = base.to_vec();
        seq.extend(["--threads", "1"]);
        let text = run_to_string(&seq).unwrap();
        assert!(text.contains("[2] ktg:"), "{text}");
        assert!(text.contains("[cached]"), "repeat must hit the cache:\n{text}");
        assert!(text.contains("[4] update:"), "{text}");
        assert!(text.contains("served:"), "{text}");

        // Group lines must be identical across threads and cache modes
        // (the [cached] markers and stats line legitimately differ).
        let groups = |text: &str| -> Vec<String> {
            text.lines().filter(|l| l.starts_with("    #")).map(String::from).collect()
        };
        let reference = groups(&text);
        assert!(!reference.is_empty());
        for extra in [&["--threads", "4"][..], &["--no-cache"][..]] {
            let mut argv = base.to_vec();
            argv.extend(extra.iter().copied());
            assert_eq!(groups(&run_to_string(&argv).unwrap()), reference, "{extra:?}");
        }
        let mut no_cache = base.to_vec();
        no_cache.push("--no-cache");
        assert!(!run_to_string(&no_cache).unwrap().contains("[cached]"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_reports_workload_parse_errors() {
        let dir = temp_dir("batch-err");
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "generate", "--profile", "brightkite", "--scale", "800", "--seed", "7", "--out", out,
        ])
        .unwrap();
        let workload = dir.join("bad.txt");
        std::fs::write(&workload, "ktg terms=t0 p=0 k=1 n=1\n").unwrap();
        let err = run_to_string(&[
            "batch",
            "--workload", workload.to_str().unwrap(),
            "--edges", dir.join("edges.txt").to_str().unwrap(),
        ])
        .expect_err("invalid p must fail");
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_line_and_degraded_exit_path() {
        let dir = temp_dir("status");
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "generate", "--profile", "brightkite", "--scale", "400", "--seed", "5", "--out", out,
        ])
        .unwrap();
        let edges = dir.join("edges.txt");
        let keywords = dir.join("keywords.txt");
        let base = [
            "query",
            "--edges", edges.to_str().unwrap(),
            "--keywords", keywords.to_str().unwrap(),
            "--random-terms", "5",
            "-p", "3", "-k", "1", "-n", "3",
        ];
        // A generous deadline never fires: status stays exact and the
        // groups are identical to the unbudgeted run.
        let (status, text) = run_with_status(&base).unwrap();
        assert_eq!(status, RunStatus::Complete);
        assert!(text.contains("status: exact"), "{text}");
        let groups = |t: &str| -> Vec<String> {
            t.lines().filter(|l| l.starts_with('#')).map(String::from).collect()
        };
        let mut generous = base.to_vec();
        generous.extend(["--deadline-ms", "600000"]);
        let (status, budgeted) = run_with_status(&generous).unwrap();
        assert_eq!(status, RunStatus::Complete);
        assert_eq!(groups(&budgeted), groups(&text), "unfired deadline must not change answers");
        // A 1-node budget degrades deterministically; the run still
        // returns (anytime best-so-far) and reports it.
        let mut tight = base.to_vec();
        tight.extend(["--node-budget", "1"]);
        let (status, degraded) = run_with_status(&tight).unwrap();
        assert_eq!(status, RunStatus::Degraded);
        assert!(degraded.contains("status: degraded(node-budget)"), "{degraded}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_max_inflight_and_budget_report_partial() {
        let dir = temp_dir("batch-partial");
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "generate", "--profile", "brightkite", "--scale", "400", "--seed", "7", "--out", out,
        ])
        .unwrap();
        let workload = dir.join("workload.txt");
        std::fs::write(
            &workload,
            "\
ktg terms=t0,t1,t2 p=2 k=1 n=2
ktg terms=t0,t1,t3 p=2 k=1 n=2
ktg terms=t0,t2,t3 p=2 k=1 n=2
",
        )
        .unwrap();
        let edges = dir.join("edges.txt");
        let keywords = dir.join("keywords.txt");
        let base = [
            "batch",
            "--workload", workload.to_str().unwrap(),
            "--edges", edges.to_str().unwrap(),
            "--keywords", keywords.to_str().unwrap(),
            "--threads", "1",
        ];
        // Batch solves every query and sheds none: it refuses the
        // retired admission-bound flag (exit 2), naming it.
        let mut capped = base.to_vec();
        capped.extend(["--max-inflight", "1"]);
        match run_with_status(&capped) {
            Err(KtgError::InvalidInput(msg)) => assert!(msg.contains("--max-inflight"), "{msg}"),
            other => panic!("batch must refuse --max-inflight, got {other:?}"),
        }
        let mut budgeted = base.to_vec();
        budgeted.extend(["--node-budget", "1"]);
        let (status, text) = run_with_status(&budgeted).unwrap();
        assert_eq!(status, RunStatus::Degraded);
        assert!(text.contains("[degraded(node-budget)]"), "{text}");
        assert!(text.contains("partial: 3 degraded, 0 failed"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn author_exclusion_flag_runs() {
        let dir = temp_dir("authors");
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "generate", "--profile", "brightkite", "--scale", "400", "--seed", "3", "--out", out,
        ])
        .unwrap();
        let edges = dir.join("edges.txt");
        let keywords = dir.join("keywords.txt");
        let q = run_to_string(&[
            "query",
            "--edges", edges.to_str().unwrap(),
            "--keywords", keywords.to_str().unwrap(),
            "--random-terms", "5",
            "--authors", "0,1",
            "-p", "3", "-k", "1", "-n", "2",
        ])
        .unwrap();
        assert!(q.contains("excluded"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
