//! Metamorphic relations of KTG answers, checked where brute force
//! cannot reach.
//!
//! Tenuity only ever *forbids* groups: a group of `p` candidates is
//! feasible iff every pair lies more than `k` hops apart. Edits never
//! change keywords, so the candidates and their coverage masks stay
//! fixed, and three relations follow from the paper's definitions alone:
//!
//! * inserting an edge only shortens distances, so the feasible set
//!   shrinks and the coverage at every rank of the top `N` never rises;
//! * removing an edge only lengthens them, so it never falls;
//! * raising `k` forbids more pairs, so it never rises either.
//!
//! The answers come from [`ServeSession`]s, cache on and off, with edits
//! interleaved between query runs: a cached answer that outlived an edit
//! it should not have, or a conflict row built from a stale ball, breaks
//! a relation or the cache-on/off agreement. Searches run under a node
//! budget; a pair with a degraded side is skipped and counted, and most
//! pairs must be exact.

use ktg_common::SeededRng;
use ktg_core::bb::BbOptions;
use ktg_core::serve::{ItemOutcome, ServeOptions, ServeSession, WorkloadItem};
use ktg_core::{AttributedGraph, Group, KtgQuery};
use ktg_integration_tests::{random_network, random_query};

/// Per-search node budget: most searches here finish well inside it.
const NODE_BUDGET: u64 = 20_000;
/// Top-`N` size of every query.
const N: usize = 8;
/// The `k` values each query runs at, ascending.
const KS: [u32; 2] = [2, 3];

/// One epoch's answers: `answers[q][i]` is query `q` at `KS[i]`, `None`
/// when the search was cut by the budget.
type Epoch = Vec<Vec<Option<Vec<Group>>>>;

/// Coverage count at each rank `0..N`, 0 past the last group.
fn coverage(groups: &[Group]) -> [u32; N] {
    std::array::from_fn(|r| groups.get(r).map_or(0, Group::coverage_count))
}

/// Tallies of compared pairs.
#[derive(Default, Debug)]
struct Tally {
    exact: u32,
    degraded: u32,
    /// Exact pairs whose coverage vectors differ: evidence the relation
    /// was tested, not met vacuously.
    strict: u32,
}

impl Tally {
    /// Checks `lower[r] <= upper[r]` at every rank when both sides are
    /// exact; counts the pair either way.
    fn at_most(&mut self, lower: &Option<Vec<Group>>, upper: &Option<Vec<Group>>, what: &str) {
        let (Some(lower), Some(upper)) = (lower, upper) else {
            self.degraded += 1;
            return;
        };
        let (lo, up) = (coverage(lower), coverage(upper));
        assert!(lo.iter().zip(&up).all(|(l, u)| l <= u), "{what}: {lo:?} rose above {up:?}");
        self.exact += 1;
        self.strict += u32::from(lo != up);
    }
}

/// Runs `items` (optionally after one edit) and regroups the answers.
fn epoch(session: &mut ServeSession, edit: Option<WorkloadItem>, items: &[WorkloadItem]) -> Epoch {
    let edited = edit.is_some();
    let mut workload: Vec<WorkloadItem> = edit.into_iter().collect();
    workload.extend_from_slice(items);
    let mut out = session.run(&workload);
    if edited {
        assert_eq!(out.remove(0), ItemOutcome::Update { applied: true }, "every edit applies");
    }
    let answers: Vec<Option<Vec<Group>>> = out
        .into_iter()
        .map(|o| match o {
            ItemOutcome::Ktg(a) => a.status.is_exact().then_some(a.groups),
            other => panic!("expected a KTG answer, got {other:?}"),
        })
        .collect();
    answers.chunks(KS.len()).map(<[_]>::to_vec).collect()
}

/// Picks the next edit on `net`: odd steps remove an edge at a member of
/// some query's best group, even steps join two members of one, which
/// are more than `k` apart and so not adjacent.
fn next_edit(
    net: &AttributedGraph,
    answers: &Epoch,
    step: u32,
    rng: &mut SeededRng,
) -> WorkloadItem {
    let tops: Vec<&Group> =
        answers.iter().flatten().flatten().filter_map(|groups| groups.first()).collect();
    let top = tops[rng.gen_range(0..tops.len())];
    let members = top.members();
    let u = members[rng.gen_range(0..members.len())];
    if step % 2 == 1 {
        let neighbors = net.graph().neighbors(u);
        if !neighbors.is_empty() {
            return WorkloadItem::Remove(u, neighbors[rng.gen_range(0..neighbors.len())]);
        }
    }
    let v = *members.iter().find(|&&v| v != u).expect("groups have p >= 2 members");
    WorkloadItem::Insert(u.min(v), u.max(v))
}

#[test]
fn coverage_is_monotone_in_edits_and_k() {
    let (mut edits, mut ks, mut cache) = (Tally::default(), Tally::default(), Tally::default());
    for seed in 0..4u64 {
        let net = random_network(200, 0.04, 16, 3, 0x4D0 + seed);
        // Four keyword sets, each at every `k`, in `Epoch` order.
        let items: Vec<WorkloadItem> = (0..4u64)
            .flat_map(|i| {
                let keywords = random_query(&net, 6, seed * 10 + i);
                let p = 3 + (i % 2) as usize;
                KS.map(|k| WorkloadItem::Ktg(KtgQuery::new(keywords.clone(), p, k, N).unwrap()))
            })
            .collect();
        let engine = BbOptions { node_budget: Some(NODE_BUDGET), ..BbOptions::vkc_deg() };
        let options =
            |use_cache| ServeOptions { threads: 1, use_cache, engine, ..ServeOptions::default() };
        let (mut on, mut off) =
            (ServeSession::new(net.clone(), options(true)), ServeSession::new(net, options(false)));
        let mut rng = SeededRng::seed_from_u64(seed);
        let mut before = epoch(&mut off, None, &items);
        epoch(&mut on, None, &items);
        for step in 0..10u32 {
            let edit = next_edit(off.net(), &before, step, &mut rng);
            let after = epoch(&mut off, Some(edit.clone()), &items);
            let cached = epoch(&mut on, Some(edit.clone()), &items);
            for (q, (was, now)) in before.iter().zip(&after).enumerate() {
                for (i, k) in KS.iter().enumerate() {
                    let what = format!("seed {seed} step {step} query {q} k={k} {edit:?}");
                    match edit {
                        WorkloadItem::Insert(..) => edits.at_most(&now[i], &was[i], &what),
                        _ => edits.at_most(&was[i], &now[i], &what),
                    }
                    match (&cached[q][i], &now[i]) {
                        (Some(c), Some(n)) => {
                            assert_eq!(c, n, "{what}: the cache changed an answer");
                            cache.exact += 1;
                        }
                        _ => cache.degraded += 1,
                    }
                }
                for (i, pair) in now.windows(2).enumerate() {
                    let what =
                        format!("seed {seed} step {step} query {q} k={} -> {}", KS[i], KS[i + 1]);
                    ks.at_most(&pair[1], &pair[0], &what);
                }
            }
            before = after;
        }
    }
    for (name, tally) in [("edits", &edits), ("k", &ks), ("cache", &cache)] {
        assert!(
            tally.exact >= 4 * tally.degraded && tally.exact > 0,
            "{name}: most pairs must be exact ({tally:?})"
        );
    }
    assert!(edits.strict > 0 && ks.strict > 0, "no relation was tested strictly: {edits:?} {ks:?}");
}
