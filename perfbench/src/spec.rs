//! Workload definitions and input generation.
//!
//! Every workload is a fixed graph, a fixed pool of distinct query lines
//! and a line stream. The graph and the pool come from the generator
//! seeds recorded here, so every run measures the same work; the run's
//! `--seed` draws the stream: the Zipf replay order, the order of the cold
//! queries, and the edges the update lines touch. The server only ever
//! sees the generated edge/keyword text files and the workload lines.

use ktg_common::{FxHashSet, SeededRng, VertexId};
use ktg_core::AttributedGraph;
use ktg_datasets::keywords::{assign_zipf, assign_zipf_chunked, KeywordModel};
use ktg_datasets::sbm::{block_of, planted_partition, planted_partition_chunked, SbmParams};
use ktg_datasets::QueryGen;
use ktg_graph::Adjacency;
use ktg_keywords::KeywordId;

/// `ktg serve --workers`. The load generator holds one connection in a
/// closed loop, so one worker solves at a time and the other core is left
/// to the client and the system: on a two-core machine two concurrent
/// solves measure how their placement was drawn, not the program.
pub const SERVER_WORKERS: usize = 2;
/// The timed lines are sent this many times, each pass to a freshly set
/// up server. With one connection every pass does exactly the same work:
/// each line's round trip is the fastest of its passes', and `setup_s`
/// the median of this many set-ups.
pub const PASSES: usize = 8;
/// Zipf exponent of the repeat streams.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Update pairs (insert + remove) sent after each pass of `cold_solve`,
/// so its `update_*` metrics time real updates.
pub const EPILOGUE_PAIRS: usize = 20;

/// Seed of the `sbm1200` graph (the graph the `qps`/`net_qps` benches use).
pub const SBM1200_SEED: u64 = 0xB0B5_CA1E;
/// Seed of the `sbm100k` graph (the CI substrate smoke's seed).
pub const SBM100K_SEED: u64 = 11;
/// Seed of every distinct-query pool.
pub const POOL_SEED: u64 = 0x9E11_7AB1;

/// Table I defaults: `p`, `k`, `N`, `γ`, `|W_Q|`.
const P: usize = 3;
const K: u32 = 2;
const N: usize = 5;
const GAMMA: f64 = 0.5;
const TABLE_I_TERMS: usize = 6;

/// `cold_solve`: distinct KTG queries, outside the timed pool, answered
/// before each pass's timed lines. They fill the conflict-row memo as a
/// long-running server's would, so a query's cost does not depend on how
/// early the seed put it.
const WARMUP_QUERIES: usize = 40;

/// Distinct KTG and DKTG queries behind the `update_mix` Zipf stream.
const KTG_POOL: usize = 48;
const DKTG_POOL: usize = 16;

/// `update_mix`: query terms come from this band of holder counts,
/// three terms per query.
const TAIL_BAND: (usize, usize) = (20, 120);
const TAIL_TERMS: usize = 3;
/// `update_mix`: updates only touch the last `UPDATE_BLOCKS` blocks, and
/// no query term has a holder there. Inserted edges therefore never lie
/// on a path between two candidates, so every answer is the same at
/// point of the update stream — which is what lets the reference check
/// demand exact bytes from one rendering per distinct query.
const UPDATE_BLOCKS: usize = 20;
/// `update_mix`: one line in this many is an update.
const UPDATE_EVERY: usize = 10;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every query distinct: every line is a fresh solve.
    ColdSolve,
    /// Tail-band queries on the 100k-vertex graph with 10% updates,
    /// durable WAL and periodic checkpoints.
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ColdSolve, Workload::UpdateMix];

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSolve => "cold_solve",
            Workload::UpdateMix => "update_mix",
        }
    }

    /// Timed lines per second of `--seconds`, over all passes (about what
    /// one core serves): the line count is fixed for a given run length,
    /// so each percentile rank is too.
    pub fn lines_per_second(self) -> usize {
        match self {
            Workload::ColdSolve => 16,
            Workload::UpdateMix => 18,
        }
    }

    /// Whether the server runs with `--wal --wal-sync always`.
    pub fn durable(self) -> bool {
        self == Workload::UpdateMix
    }
}

/// What a line is, for latency bucketing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Ktg,
    Dktg,
    Update,
}

/// One workload line: its text, kind, and the reference rendering it
/// must produce: an index into [`Inputs::queries`], or one past its end
/// for updates (`update: applied`).
#[derive(Clone, Debug)]
pub struct Line {
    pub text: String,
    pub kind: Kind,
    pub expect: usize,
}

/// Everything one run sends, plus what it must get back.
pub struct Inputs {
    pub net: AttributedGraph,
    /// Distinct query lines.
    pub queries: Vec<String>,
    /// Sent before the timed stream in every pass, untimed (`cold_solve`).
    pub warmup: Vec<Line>,
    /// The timed stream, in the order it is sent; every pass sends all of
    /// it.
    pub timed: Vec<Line>,
    /// Update lines sent after each pass on an otherwise idle server
    /// (`cold_solve`).
    pub epilogue: Vec<Line>,
    /// `--checkpoint-every` (durable workloads).
    pub checkpoint_every: u64,
}

pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let lines = round_lines(workload.lines_per_second() * seconds.max(1) as usize / PASSES);
    match workload {
        Workload::ColdSolve => cold_solve(seed, lines),
        Workload::UpdateMix => update_mix(seed, lines),
    }
}

/// `sbm1200`: `SbmParams::modular(1200, 8)` plus Zipf keywords (the graph
/// the `qps`/`net_qps` benches use).
pub fn sbm1200() -> AttributedGraph {
    let n = 1200;
    let graph = planted_partition(&SbmParams::modular(n, 8), SBM1200_SEED);
    let (vocab, vk) = assign_zipf(n, &KeywordModel::default(), SBM1200_SEED ^ 0x515F);
    AttributedGraph::new(graph, vocab, vk)
}

/// `sbm100k` parameters: the CI substrate graph (`ktg generate --sbm-n
/// 100000 --sbm-blocks 1000 --sbm-pin 0.12 --sbm-pout 0.0 --seed 11`).
pub fn sbm100k_params() -> SbmParams {
    SbmParams { n: 100_000, blocks: 1000, p_in: 0.12, p_out: 0.0 }
}

pub fn sbm100k() -> AttributedGraph {
    let params = sbm100k_params();
    // One chunk holds every edge, so the builder never spills to disk.
    let graph = planted_partition_chunked(&params, SBM100K_SEED, 1 << 23)
        .expect("in-memory SBM build");
    let (vocab, vk) = assign_zipf_chunked(params.n, &KeywordModel::default(), SBM100K_SEED);
    AttributedGraph::new(graph, vocab, vk)
}

fn terms_of(net: &AttributedGraph, ids: &[KeywordId]) -> String {
    ids.iter().map(|&id| net.vocab().term(id)).collect::<Vec<_>>().join(",")
}

fn ktg_line(terms: &str) -> String {
    format!("ktg terms={terms} p={P} k={K} n={N}")
}

fn dktg_line(terms: &str) -> String {
    format!("dktg terms={terms} p={P} k={K} n={N} gamma={GAMMA}")
}

/// `count` distinct Table I keyword sets, frequency weighted, every term
/// carried by at least one vertex (a term nobody holds is not in the
/// server's vocabulary once the keyword file is re-read).
fn table_i_sets(net: &AttributedGraph, count: usize, salt: u64) -> Vec<String> {
    let mut gen = QueryGen::new(net, POOL_SEED ^ salt);
    let mut seen = FxHashSet::default();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let q = gen.query(TABLE_I_TERMS).expect("vocabulary holds six terms");
        if q.ids().iter().any(|&id| net.inverted().frequency(id) == 0) {
            continue;
        }
        let mut key = q.ids().to_vec();
        key.sort_unstable();
        if seen.insert(key) {
            out.push(terms_of(net, q.ids()));
        }
    }
    out
}

/// The kind of every timed line: every `UPDATE_EVERY`-th line is an
/// update (when `updates`) and every fourth query is DKTG, so the
/// per-kind sample counts are fixed by the line count.
fn kinds(lines: usize, updates: bool) -> Vec<Kind> {
    let mut queries_seen = 0usize;
    (0..lines)
        .map(|i| {
            if updates && i % UPDATE_EVERY == UPDATE_EVERY - 1 {
                return Kind::Update;
            }
            queries_seen += 1;
            if queries_seen.is_multiple_of(4) { Kind::Dktg } else { Kind::Ktg }
        })
        .collect()
}

/// Line counts are rounded up to a whole number of update cycles, so
/// every insert is matched by a remove.
fn round_lines(lines: usize) -> usize {
    lines.div_ceil(UPDATE_CYCLE).max(1) * UPDATE_CYCLE
}

/// An insert and its remove (`update_mix`).
const UPDATE_CYCLE: usize = 2 * UPDATE_EVERY;

fn query_line(queries: &[String], slot: usize, kind: Kind) -> Line {
    Line { text: queries[slot].clone(), kind, expect: slot }
}

/// `ktg` lines over `ktg` followed by `dktg` lines over `dktg`; returns
/// them with the index of the first DKTG line.
fn pools(ktg: &[String], dktg: &[String]) -> (Vec<String>, usize) {
    let mut queries: Vec<String> = ktg.iter().map(|t| ktg_line(t)).collect();
    queries.extend(dktg.iter().map(|t| dktg_line(t)));
    (queries, ktg.len())
}

/// Zipf replay over the KTG pool and the DKTG pool. Each pool entry
/// appears exactly its Zipf share of the lines of its kind (largest
/// remainders rounded up) and the seed shuffles the order, so every seed
/// replays the same multiset of queries: the run-to-run spread is the
/// system's, not the sampler's.
fn zipf_stream(kinds: &[Kind], queries: &[String], first_dktg: usize, seed: u64) -> Vec<Line> {
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x21FF);
    let mut stratified = |pool: std::ops::Range<usize>, kind: Kind| {
        let lines = kinds.iter().filter(|&&k| k == kind).count();
        let weights: Vec<f64> =
            (1..=pool.len()).map(|rank| (rank as f64).powf(-ZIPF_EXPONENT)).collect();
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights.iter().map(|w| w * lines as f64 / total).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..pool.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())).then(a.cmp(&b))
        });
        let short = lines - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(short) {
            counts[i] += 1;
        }
        let mut slots: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(pool.start + i, c))
            .collect();
        rng.shuffle(&mut slots);
        slots.into_iter()
    };
    let mut ktg = stratified(0..first_dktg, Kind::Ktg);
    let mut dktg = stratified(first_dktg..queries.len(), Kind::Dktg);
    kinds
        .iter()
        .map(|&kind| {
            let slots = match kind {
                Kind::Ktg => &mut ktg,
                Kind::Dktg => &mut dktg,
                // Filled in by the caller.
                Kind::Update => return Line { text: String::new(), kind, expect: 0 },
            };
            query_line(queries, slots.next().expect("one slot per line"), kind)
        })
        .collect()
}

fn cold_solve(seed: u64, lines: usize) -> Inputs {
    let net = sbm1200();
    let kinds = kinds(lines, false);
    let dktg_lines = kinds.iter().filter(|&&k| k == Kind::Dktg).count();
    let mut sets = table_i_sets(&net, lines + WARMUP_QUERIES, 0xC01D);
    let warmup_sets = sets.split_off(lines);
    let (mut queries, first_dktg) = pools(&sets[dktg_lines..], &sets[..dktg_lines]);
    // The pool is fixed; the seed only deals it: the order the queries
    // are sent in.
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x5EED);
    let mut ktg_slots: Vec<usize> = (0..first_dktg).collect();
    let mut dktg_slots: Vec<usize> = (first_dktg..queries.len()).collect();
    rng.shuffle(&mut ktg_slots);
    rng.shuffle(&mut dktg_slots);
    let (mut ktg_slots, mut dktg_slots) = (ktg_slots.into_iter(), dktg_slots.into_iter());
    let timed = kinds
        .iter()
        .map(|&kind| {
            let slots = if kind == Kind::Dktg { &mut dktg_slots } else { &mut ktg_slots };
            query_line(&queries, slots.next().expect("one query per line"), kind)
        })
        .collect();
    let warmup = warmup_sets
        .iter()
        .map(|terms| {
            queries.push(ktg_line(terms));
            query_line(&queries, queries.len() - 1, Kind::Ktg)
        })
        .collect();
    let epilogue = epilogue(&net, queries.len());
    Inputs { net, queries, warmup, timed, epilogue, checkpoint_every: 0 }
}

fn update_mix(seed: u64, lines: usize) -> Inputs {
    let params = sbm100k_params();
    let net = sbm100k();
    let first_update_block = params.blocks - UPDATE_BLOCKS;
    let in_update_blocks = |v: VertexId| block_of(&params, v) >= first_update_block;

    // Tail-band terms with no holder in the update blocks.
    let eligible: Vec<KeywordId> = (0..net.vocab().len() as u32)
        .map(KeywordId)
        .filter(|&id| {
            let holders = net.inverted().posting(id);
            (TAIL_BAND.0..=TAIL_BAND.1).contains(&holders.len())
                && !holders.iter().any(|&v| in_update_blocks(v))
        })
        .collect();
    assert!(eligible.len() >= 4 * TAIL_TERMS, "tail band too narrow");
    let mut rng = SeededRng::seed_from_u64(POOL_SEED ^ 0x7A11);
    let mut seen = FxHashSet::default();
    let mut sets = Vec::new();
    while sets.len() < KTG_POOL + DKTG_POOL {
        let mut ids: Vec<KeywordId> = Vec::with_capacity(TAIL_TERMS);
        while ids.len() < TAIL_TERMS {
            let id = eligible[rng.gen_range(0..eligible.len())];
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let mut key = ids.clone();
        key.sort_unstable();
        if seen.insert(key) {
            sets.push(terms_of(&net, &ids));
        }
    }
    let (queries, first_dktg) = pools(&sets[..KTG_POOL], &sets[KTG_POOL..]);
    let update_slot = queries.len();

    // Updates alternate insert/remove of one edge, so an insert always
    // finds its edge absent and the remove finds it present.
    let first_vertex = first_update_block * params.n.div_ceil(params.blocks);
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x0ED6E);
    let mut used = FxHashSet::default();
    let mut pending: Option<(u32, u32)> = None;
    let kinds = kinds(lines, true);
    let mut timed = zipf_stream(&kinds, &queries, first_dktg, seed);
    for line in timed.iter_mut().filter(|l| l.kind == Kind::Update) {
        let (verb, (u, v)) = match pending.take() {
            Some(edge) => ("remove", edge),
            None => {
                let edge = loop {
                    let a = VertexId::new(rng.gen_range(first_vertex..params.n));
                    let b = VertexId::new(rng.gen_range(first_vertex..params.n));
                    let (u, v) = (a.min(b), a.max(b));
                    if block_of(&params, u) != block_of(&params, v) && used.insert((u.0, v.0)) {
                        break (u.0, v.0);
                    }
                };
                pending = Some(edge);
                ("insert", edge)
            }
        };
        *line = Line { text: format!("{verb} {u} {v}"), kind: Kind::Update, expect: update_slot };
    }
    assert!(pending.is_none(), "every insert is matched by a remove");
    let updates = kinds.iter().filter(|&&k| k == Kind::Update).count();
    // At least four checkpoints complete per pass.
    let checkpoint_every = (updates / 4).max(1) as u64;
    Inputs { net, queries, warmup: Vec::new(), timed, epilogue: Vec::new(), checkpoint_every }
}

/// `EPILOGUE_PAIRS` inserts of absent edges, each followed by its
/// remove.
/// The edges come from the pool seed: index maintenance cost depends on
/// the edge, and every run times the same maintenance work.
fn epilogue(net: &AttributedGraph, update_slot: usize) -> Vec<Line> {
    let n = net.num_vertices();
    let mut rng = SeededRng::seed_from_u64(POOL_SEED ^ 0xE9);
    let mut used = FxHashSet::default();
    let mut out = Vec::with_capacity(2 * EPILOGUE_PAIRS);
    while out.len() < 2 * EPILOGUE_PAIRS {
        let a = VertexId::new(rng.gen_range(0..n));
        let b = VertexId::new(rng.gen_range(0..n));
        let (u, v) = (a.min(b), a.max(b));
        let mut adjacent = false;
        net.graph().for_each_neighbor(u, |w| adjacent |= w == v);
        if u == v || adjacent || !used.insert((u, v)) {
            continue;
        }
        for verb in ["insert", "remove"] {
            let text = format!("{verb} {} {}", u.0, v.0);
            out.push(Line { text, kind: Kind::Update, expect: update_slot });
        }
    }
    out
}
