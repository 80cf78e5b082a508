//! The sequential DFS engine.
//!
//! One [`Engine`] implements Algorithm 1 over candidate *indices* for
//! every configuration: either [`ConflictKernel`], any root-branch
//! partition (the parallel driver assigns each worker a round-robin slice
//! of the first-level branches), and an optional [`SharedThreshold`] that
//! imports other workers' N-th-best coverage into the Theorem-2 bound.
//!
//! Keyword pruning cuts a branch whose upper bound falls *strictly below*
//! the threshold. A branch whose bound only ties this engine's own N-th
//! best can at best produce a tied group, and under the canonical result
//! ranking a tied group enters only if its sorted member list is
//! lexicographically smaller than the N-th's. The smallest completion of
//! `S_I` from `ord[i..]` (`S_I` plus the `need` smallest ids left, sorted)
//! is elementwise no larger than any other, so when even it does not win,
//! the tied branch is cut too. Every cut group therefore ranks at or
//! below the N-th best at the moment of the cut; the N-th best only
//! rises, so the engine admits the same groups in the same order as a
//! search that entered every tie, and the result stays a pure function of
//! the feasible-group set (see DESIGN.md §12). Both the bound and the
//! smallest completion only worsen as the loop advances through the
//! ordered `S_R`, so a cut ends the whole node, not just the branch.

use super::kernel::ConflictKernel;
use super::{top_vkc_sum_masks, BbOptions, KtgOutcome};
use crate::candidates::Candidate;
use crate::group::{Group, RankedGroup};
use crate::query::KtgQuery;
use crate::stats::SearchStats;
use ktg_common::{cancel, CancelToken, CompletionStatus, FixedBitSet, SharedThreshold, TopN, VertexId};
use ktg_index::DistanceOracle;
use ktg_keywords::coverage;

/// Runs the engine over the whole tree on the calling thread.
pub(super) fn run_sequential(
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    cands: &[Candidate],
    kernel: &ConflictKernel,
    opts: &BbOptions,
    token: Option<&CancelToken>,
) -> KtgOutcome {
    let mut engine = Engine::new(query, oracle, cands, kernel, opts, None, 0, 1, token);
    engine.run();
    let (results, stats) = engine.into_parts();
    KtgOutcome {
        groups: results.into_sorted_desc().into_iter().map(|r| r.group).collect(),
        stats,
        // Placeholder: the dispatcher (`bb::run`) derives the
        // real status from the merged stats and the token.
        status: CompletionStatus::Exact,
    }
}

/// One DFS worker: the full sequential engine when `root_stride == 1`,
/// or one parallel worker owning the root branches with
/// `index % root_stride == root_offset`.
pub(super) struct Engine<'a, O: DistanceOracle> {
    query: &'a KtgQuery,
    oracle: &'a O,
    cands: &'a [Candidate],
    kernel: &'a ConflictKernel,
    opts: &'a BbOptions,
    /// Cross-worker pruning floor; `None` in sequential runs.
    shared: Option<&'a SharedThreshold>,
    /// Cooperative deadline/cancellation flag, shared by every worker of
    /// the same query; `None` for unbudgeted searches.
    token: Option<&'a CancelToken>,
    root_offset: usize,
    root_stride: usize,
    results: TopN<RankedGroup>,
    stats: SearchStats,
    stop: bool,
    /// The intermediate result set `S_I` as vertex ids (group members).
    members: Vec<VertexId>,
    /// `S_I` as candidate indices (for bitmap conflict lookups).
    member_idx: Vec<u32>,
    /// Per-depth `S_R` bitsets for the bitmap kernel: `avail[d]` holds the
    /// still-unexplored candidates at depth `d`; a child pool is derived
    /// into `avail[d + 1]` by one word-parallel AND-NOT. Empty unless the
    /// kernel is bitmap-backed and eager filtering is on.
    avail: Vec<FixedBitSet>,
    /// Per-depth tables for the tie cut, filled by [`fill_completions`]
    /// the first time a node's bound ties the local N-th best, and
    /// cleared when the next node at that depth starts: `S_I` sorted,
    /// then one row of `need` sorted ids per suffix, where row `r` holds
    /// the smallest ids of `ord[ord.len() - need - r..]`.
    completions: Vec<Vec<VertexId>>,
}

impl<'a, O: DistanceOracle> Engine<'a, O> {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        query: &'a KtgQuery,
        oracle: &'a O,
        cands: &'a [Candidate],
        kernel: &'a ConflictKernel,
        opts: &'a BbOptions,
        shared: Option<&'a SharedThreshold>,
        root_offset: usize,
        root_stride: usize,
        token: Option<&'a CancelToken>,
    ) -> Self {
        let avail = if kernel.is_bitmap() && opts.kline_filtering {
            vec![FixedBitSet::new(cands.len()); query.p()]
        } else {
            Vec::new()
        };
        Engine {
            query,
            oracle,
            cands,
            kernel,
            opts,
            shared,
            token,
            root_offset,
            root_stride,
            results: TopN::new(query.n()),
            stats: SearchStats::default(),
            stop: false,
            members: Vec::with_capacity(query.p()),
            member_idx: Vec::with_capacity(query.p()),
            avail,
            completions: vec![Vec::new(); query.p()],
        }
    }

    /// Sorts the root `S_R` and explores this engine's share of the tree.
    pub(super) fn run(&mut self) {
        let mut ord: Vec<u32> = (0..self.cands.len() as u32).collect();
        self.opts.ordering.sort_indices(0, self.cands, &mut ord);
        if !self.avail.is_empty() {
            for ci in 0..self.cands.len() {
                self.avail[0].insert(ci);
            }
        }
        self.node(0, &ord);
    }

    /// Surrenders the per-worker result heap and counters.
    pub(super) fn into_parts(self) -> (TopN<RankedGroup>, SearchStats) {
        (self.results, self.stats)
    }

    /// The Theorem-2 threshold: the local N-th-best coverage joined with
    /// the shared cross-worker floor (both are proven coverage counts of
    /// N distinct feasible groups, so their max is too).
    #[inline]
    fn threshold(&self) -> Option<u32> {
        let local = self.results.threshold().map(|r| r.count);
        let shared = self.shared.map(|s| s.get()).filter(|&floor| floor > 0);
        match (local, shared) {
            (Some(l), Some(s)) => Some(l.max(s)),
            (l, s) => l.or(s),
        }
    }

    /// Keyword pruning: can no group completing `S_I` from `ord[i..]`
    /// enter the result? Theorem 2 bounds its coverage by `covered` plus
    /// the best `need` remaining VKC values. A bound below the threshold
    /// cuts outright. A bound equal to the local N-th best's count cuts
    /// when even the smallest completion is not canonically smaller than
    /// the N-th's members. The shared floor is a count only: when it lies
    /// above the local N-th best, no bound that passes it can tie locally.
    fn keyword_prunes(&mut self, covered: u64, ord: &[u32], i: usize, need: usize) -> bool {
        let Some(threshold) = self.threshold() else { return false };
        let cands = self.cands;
        let bound = coverage::covered_count(covered)
            + top_vkc_sum_masks(
                covered,
                ord[i..].iter().map(|&ci| cands[ci as usize].mask),
                need,
                self.opts.ordering.vkc_sorted(),
            );
        if bound < threshold {
            return true;
        }
        let Some(nth) = self.results.threshold() else { return false };
        if nth.count != bound {
            return false;
        }
        let depth = self.members.len();
        let table = &mut self.completions[depth];
        if table.is_empty() {
            fill_completions(table, &self.members, self.cands, &ord[i..], need);
        }
        let (base, rows) = table.split_at(depth);
        let row = ord.len() - need - i;
        let smallest = &rows[row * need..(row + 1) * need];
        !union_precedes(base, smallest, nth.group.members())
    }

    fn offer(&mut self, covered: u64) {
        self.stats.groups_evaluated += 1;
        let group = Group::new(self.members.clone(), covered);
        let count = group.coverage_count();
        let admitted = self.results.offer(RankedGroup::new(group));
        if admitted && self.results.is_full() {
            if let (Some(shared), Some(nth)) = (self.shared, self.results.threshold()) {
                shared.publish(nth.count);
            }
            if let Some(floor) = self.opts.stop_at_coverage {
                if count >= floor {
                    self.stop = true;
                }
            }
        }
    }

    /// Counts a search-tree node against the budgets; returns `false`
    /// when a budget is exhausted or the cancel token has fired (the
    /// search then unwinds, keeping its best-so-far results).
    #[inline]
    fn charge_node(&mut self) -> bool {
        self.stats.nodes += 1;
        if let Some(budget) = self.opts.node_budget {
            if self.stats.nodes > budget {
                self.stats.truncated = true;
                self.stop = true;
                return false;
            }
        }
        if let Some(token) = self.token {
            // Clock reads are amortized: one `poll` (which reads the
            // wall clock inside `ktg_common::cancel`) every POLL_STRIDE
            // nodes, a relaxed load otherwise — another worker or an
            // earlier poll may already have fired the token.
            let fired = if self.stats.nodes.is_multiple_of(cancel::POLL_STRIDE) {
                token.poll()
            } else {
                token.is_cancelled()
            };
            if fired {
                self.stats.cancelled = true;
                self.stop = true;
                return false;
            }
        }
        true
    }

    /// One Algorithm 1 node: `members`/`covered` are `S_I`, `ord` is the
    /// ordered remaining set as candidate indices (already
    /// k-line-consistent with `S_I` when eager filtering is on).
    fn node(&mut self, covered: u64, ord: &[u32]) {
        if !self.charge_node() {
            return;
        }
        if self.members.len() == self.query.p() {
            self.offer(covered);
            return;
        }
        let depth = self.members.len();
        let need = self.query.p() - depth;
        let kernel = self.kernel;
        self.completions[depth].clear();

        for i in 0..ord.len() {
            let ci = ord[i] as usize;
            // Maintain the depth's S_R bitset unconditionally — also for
            // branches this loop skips — so a later AND-NOT derives the
            // child from exactly ord[i+1..]. Bits left behind by an early
            // return are harmless: every descent overwrites its child
            // level in full before reading it.
            if !self.avail.is_empty() {
                self.avail[depth].remove(ci);
            }
            if self.stop {
                return;
            }
            if depth == 0 && self.root_stride > 1 && i % self.root_stride != self.root_offset {
                continue;
            }
            if ord.len() - i < need {
                self.stats.feasibility_cuts += 1;
                return;
            }
            // The remaining pool only shrinks as `i` advances, so a cut
            // here cuts every later branch too: return, don't continue.
            if self.opts.keyword_pruning && self.keyword_prunes(covered, ord, i, need) {
                self.stats.keyword_pruned += 1;
                return;
            }

            let cand = self.cands[ci];
            if !self.opts.kline_filtering {
                // Lazy tenuity: check the new member against S_I directly.
                let conflict = match kernel {
                    ConflictKernel::Bitmap(maps) => {
                        self.member_idx.iter().any(|&m| maps[ci].contains(m as usize))
                    }
                    ConflictKernel::Oracle => {
                        self.stats.distance_checks += self.members.len() as u64;
                        self.members
                            .iter()
                            .any(|&u| self.oracle.is_kline(u, cand.v, self.query.k()))
                    }
                };
                if conflict {
                    continue;
                }
            }

            let new_covered = covered | cand.mask;
            self.members.push(cand.v);
            self.member_idx.push(ord[i]);

            if self.members.len() == self.query.p() {
                if self.charge_node() {
                    self.offer(new_covered);
                }
            } else {
                // Build the child S_R from the still-unexplored tail.
                let tail = &ord[i + 1..];
                let mut child: Vec<u32>;
                match (self.opts.kline_filtering, kernel) {
                    (true, ConflictKernel::Bitmap(maps)) => {
                        // avail[depth] == set(tail) here; one AND-NOT
                        // replaces |tail| oracle probes.
                        let (lower, upper) = self.avail.split_at_mut(depth + 1);
                        upper[0].assign_and_not(&lower[depth], &maps[ci]);
                        child = upper[0].iter_ones().map(|x| x as u32).collect();
                        self.stats.kline_filtered += (tail.len() - child.len()) as u64;
                    }
                    (true, ConflictKernel::Oracle) => {
                        self.stats.distance_checks += tail.len() as u64;
                        child = Vec::with_capacity(tail.len());
                        for &cj in tail {
                            if self.oracle.farther_than(
                                cand.v,
                                self.cands[cj as usize].v,
                                self.query.k(),
                            ) {
                                child.push(cj);
                            } else {
                                self.stats.kline_filtered += 1;
                            }
                        }
                    }
                    (false, _) => {
                        child = tail.to_vec();
                    }
                }
                self.opts.ordering.sort_indices(new_covered, self.cands, &mut child);
                self.node(new_covered, &child);
            }

            self.members.pop();
            self.member_idx.pop();
        }
    }
}

/// Fills a tie-cut table for a node with members `s_i`: `s_i` sorted,
/// then, for every suffix of `tail` from the shortest with `need` ids up
/// to `tail` itself, its `need` smallest ids, sorted. One backward pass
/// keeps the `need` smallest ids seen so far.
fn fill_completions(
    table: &mut Vec<VertexId>,
    s_i: &[VertexId],
    cands: &[Candidate],
    tail: &[u32],
    need: usize,
) {
    table.extend_from_slice(s_i);
    table.sort_unstable();
    let mut smallest: Vec<VertexId> = Vec::with_capacity(need);
    for &ci in tail.iter().rev() {
        let v = cands[ci as usize].v;
        let pos = smallest.partition_point(|&x| x < v);
        if pos < need {
            smallest.insert(pos, v);
            smallest.truncate(need);
        }
        if smallest.len() == need {
            table.extend_from_slice(&smallest);
        }
    }
}

/// Whether the sorted union of the disjoint sorted lists `a` and `b` is
/// lexicographically smaller than `other`, which has their total length.
fn union_precedes(a: &[VertexId], b: &[VertexId], other: &[VertexId]) -> bool {
    let (mut i, mut j) = (0, 0);
    for &o in other {
        let next = if j == b.len() || (i < a.len() && a[i] < b[j]) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        if next != o {
            return next < o;
        }
    }
    false
}
