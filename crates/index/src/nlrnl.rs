//! The **NLRNL** index — (c−1)-hop lists + reverse c-hop lists (paper §V-B).
//!
//! For each vertex `a` the widest hop level `c` is deliberately *not*
//! stored. Below it, the forward lists hold levels `1..=c-1`; above it,
//! the *reverse* lists hold levels `c+1..=ecc(a)` — the neighbors whose
//! distance from `a` is greater than `c`. A distance check never expands
//! anything:
//!
//! * `k ≤ c−1` — scan forward levels `1..=k`; miss ⇒ farther than `k`.
//! * `k ≥ c` — scan reverse levels `k+1..=ecc`; hit ⇒ farther than `k`,
//!   miss ⇒ within `k` (the pair is reachable and its distance is some
//!   finite level ≤ k).
//!
//! Two details the paper leaves implicit, made explicit here:
//!
//! 1. The `k ≥ c` rule is only sound for *reachable* pairs — an
//!    unreachable pair appears in no list but is farther than every `k`.
//!    We store connected-component labels (O(n) extra) to disambiguate.
//! 2. Half storage: a pair `{a, b}` with `a < b` is recorded only in `a`'s
//!    lists ("we only store the hop neighbor whose id is greater than the
//!    user"), so every check first routes to the smaller endpoint.
//!
//! Dynamic maintenance (edge insert/delete) follows the paper's sketch:
//! rebuild exactly the vertices whose distance to an endpoint of the edge
//! changed (a lemma on [`NlrnlIndex::apply_update`] shows no other
//! vertex's lists can change), and relabel components from the same two
//! distance arrays. See [`NlrnlIndex::prepare_update`] and
//! [`NlrnlIndex::apply_update`].

use crate::leveled::LeveledList;
use crate::oracle::DistanceOracle;
use crate::space::{BuildStats, IndexSpace};
use ktg_common::{parallel, Stopwatch, VertexId};
use ktg_graph::components::Components;
use ktg_graph::{bfs, Adjacency, BfsScratch};

/// The NLRNL ((c−1)-hop neighbors list + reverse c-hop neighbors list)
/// index.
///
/// Unlike [`crate::NlIndex`], NLRNL never consults the graph after
/// construction, so it owns no graph reference and has no lifetime
/// parameter; dynamic maintenance takes the mutated graph as an argument.
pub struct NlrnlIndex {
    n: usize,
    /// Per-vertex `c` (0 for vertices with no neighbors).
    c: Vec<u32>,
    /// Forward levels `1..=c-1`, ids > owner only (slot `i` ⇔ hop `i + 1`).
    forward: Vec<LeveledList>,
    /// Reverse levels `c+1..=ecc`, ids > owner only (slot `i` ⇔ hop `c+1+i`).
    reverse: Vec<LeveledList>,
    components: Components,
    stats: BuildStats,
}

impl NlrnlIndex {
    /// Builds the index with one full BFS per vertex, parallelized across
    /// available cores.
    ///
    /// ```
    /// use ktg_graph::CsrGraph;
    /// use ktg_index::{DistanceOracle, NlrnlIndex};
    /// use ktg_common::VertexId;
    ///
    /// let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
    /// let idx = NlrnlIndex::build(&g);
    /// assert!(idx.farther_than(VertexId(0), VertexId(4), 3)); // Dis = 4 > 3
    /// assert!(!idx.farther_than(VertexId(0), VertexId(4), 4));
    /// assert_eq!(idx.distance(VertexId(0), VertexId(3)), Some(3));
    /// ```
    pub fn build<A: Adjacency + Sync>(graph: &A) -> Self {
        Self::build_with_threads(graph, parallel::worker_count())
    }

    /// Partitioned parallel construction with an explicit worker count.
    ///
    /// The vertex space is split into roughly `4 × threads` contiguous
    /// ranges; worker `w` owns ranges `w, w + threads, w + 2·threads, …`
    /// (interleaved static assignment, which evens out degree skew across
    /// workers without work stealing or shared counters). Each range is
    /// built independently and the per-range results are merged back
    /// positionally, so the index is **byte-identical for every thread
    /// count** — `build_with_threads(g, 1)` is the sequential reference.
    pub fn build_with_threads<A: Adjacency + Sync>(graph: &A, threads: usize) -> Self {
        let start = Stopwatch::start();
        let n = graph.num_vertices();
        let threads = threads.max(1);
        let num_parts = (threads * 4).min(n.max(1));
        let part_len = parallel::chunk_size(n, num_parts);

        struct Partition {
            base: usize,
            c: Vec<u32>,
            forward: Vec<LeveledList>,
            reverse: Vec<LeveledList>,
        }

        let per_worker: Vec<Vec<Partition>> = parallel::scope_join((0..threads).map(|w| {
            move || {
                let mut scratch = BfsScratch::new(n);
                let mut built = Vec::new();
                let mut p = w;
                while p * part_len < n {
                    let base = p * part_len;
                    let end = (base + part_len).min(n);
                    let len = end - base;
                    let mut part = Partition {
                        base,
                        c: Vec::with_capacity(len),
                        forward: Vec::with_capacity(len),
                        reverse: Vec::with_capacity(len),
                    };
                    for v in base..end {
                        let (cv, fwd, rev) = build_vertex(graph, VertexId::new(v), &mut scratch);
                        part.c.push(cv);
                        part.forward.push(fwd);
                        part.reverse.push(rev);
                    }
                    built.push(part);
                    p += threads;
                }
                built
            }
        }));

        // Positional merge: every partition lands at its own base offset,
        // so arrival order is irrelevant and the result is deterministic.
        let mut c = vec![0u32; n];
        let mut forward: Vec<LeveledList> = vec![LeveledList::default(); n];
        let mut reverse: Vec<LeveledList> = vec![LeveledList::default(); n];
        let mut entries = 0usize;
        for part in per_worker.into_iter().flatten() {
            let base = part.base;
            for (off, ((cv, fwd), rev)) in part
                .c
                .into_iter()
                .zip(part.forward)
                .zip(part.reverse)
                .enumerate()
            {
                entries += fwd.total_len() + rev.total_len();
                c[base + off] = cv;
                forward[base + off] = fwd;
                reverse[base + off] = rev;
            }
        }

        NlrnlIndex {
            n,
            c,
            forward,
            reverse,
            components: Components::compute(graph),
            stats: BuildStats { elapsed: start.elapsed(), traversals: n, entries },
        }
    }

    /// The per-vertex `c` value.
    pub fn c(&self, v: VertexId) -> u32 {
        self.c[v.index()]
    }

    /// Number of vertices the index covers.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The connected-component label of `v`.
    pub fn component(&self, v: VertexId) -> u32 {
        self.components.label(v)
    }

    /// The forward hop-level lists of `v` (levels `1..=c-1`).
    pub fn forward_lists(&self, v: VertexId) -> &LeveledList {
        &self.forward[v.index()]
    }

    /// The reverse hop-level lists of `v` (levels `c+1..=ecc`).
    pub fn reverse_lists(&self, v: VertexId) -> &LeveledList {
        &self.reverse[v.index()]
    }

    /// Reassembles an index from its serialized parts (see
    /// [`crate::persist`]). The caller is responsible for the parts being
    /// mutually consistent — `load_bundle` validates them structurally and
    /// via checksum before calling this.
    pub(crate) fn from_parts(
        n: usize,
        c: Vec<u32>,
        forward: Vec<LeveledList>,
        reverse: Vec<LeveledList>,
        component_labels: Vec<u32>,
    ) -> Self {
        let entries = forward.iter().chain(reverse.iter()).map(LeveledList::total_len).sum();
        NlrnlIndex {
            n,
            c,
            forward,
            reverse,
            components: Components::from_labels(component_labels),
            stats: BuildStats { elapsed: std::time::Duration::ZERO, traversals: 0, entries },
        }
    }

    /// Construction statistics.
    pub fn build_stats(&self) -> BuildStats {
        self.stats
    }

    /// Storage breakdown (forward lists, reverse lists, component labels).
    pub fn space(&self) -> IndexSpace {
        IndexSpace {
            forward_bytes: self.forward.iter().map(LeveledList::heap_bytes).sum(),
            reverse_bytes: self.reverse.iter().map(LeveledList::heap_bytes).sum(),
            aux_bytes: self.c.len() * std::mem::size_of::<u32>() + self.components.heap_bytes(),
        }
    }

    /// `true` iff `Dis(u, v) > k`.
    fn check(&self, u: VertexId, v: VertexId, k: u32) -> bool {
        if u == v {
            return false;
        }
        if !self.components.same_component(u, v) {
            return true; // infinite distance
        }
        if k == 0 {
            return true; // distinct vertices: distance ≥ 1
        }
        // Route to the smaller id: the pair is stored only there.
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let c = self.c[a.index()];
        debug_assert!(c >= 1, "reachable pair implies the owner has neighbors");
        if k <= c.saturating_sub(1) {
            // Forward regime: levels 1..=k are all stored.
            self.forward[a.index()].find_up_to(k as usize - 1, b).is_none()
        } else {
            // Reverse regime: distance is finite; > k iff it appears at a
            // reverse level ≥ k+1, i.e. slot ≥ (k+1)-(c+1).
            let rev = &self.reverse[a.index()];
            let from_slot = (k - c) as usize;
            (from_slot..rev.num_levels()).any(|slot| rev.contains(slot, b))
        }
    }

    /// Recovers the **exact** hop distance of a pair from the stored lists:
    /// a forward hit at slot `i` means distance `i + 1`, a reverse hit at
    /// slot `j` means distance `c + 1 + j`, a total miss within the same
    /// component means distance exactly `c`, and different components mean
    /// unreachable (`None`). The index is a complete distance oracle, not
    /// just a threshold oracle.
    pub fn distance(&self, u: VertexId, v: VertexId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        if !self.components.same_component(u, v) {
            return None;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let c = self.c[a.index()];
        if let Some(slot) = self.forward[a.index()].find_up_to(usize::MAX, b) {
            return Some(slot as u32 + 1);
        }
        let rev = &self.reverse[a.index()];
        if let Some(slot) = rev.find_up_to(usize::MAX, b) {
            return Some(c + 1 + slot as u32);
        }
        Some(c)
    }

    /// Snapshots the state needed to maintain the index across one edge
    /// mutation. Call **before** mutating the graph, then mutate, then call
    /// [`NlrnlIndex::apply_update`] with the mutated graph.
    pub fn prepare_update<A: Adjacency>(&self, graph: &A, x: VertexId, y: VertexId) -> EdgeUpdate {
        debug_assert_eq!(graph.num_vertices(), self.n, "graph/index size mismatch");
        let mut scratch = BfsScratch::new(self.n);
        EdgeUpdate {
            x,
            y,
            dx_old: distances_from(graph, x, &mut scratch),
            dy_old: distances_from(graph, y, &mut scratch),
        }
    }

    /// Maintains the index across the edge mutation captured by `update`
    /// (insertion or deletion of `{x, y}`): `graph` is the **post-mutation**
    /// graph. Afterwards the index equals [`NlrnlIndex::build`] of `graph`
    /// byte for byte.
    ///
    /// It rebuilds exactly the set `A` of vertices whose distance to `x`
    /// or to `y` changed. **Lemma:** if the mutation changes `Dis(s, t)`,
    /// then both `s` and `t` lie in `A`.
    ///
    /// * *Insert.* The new shortest path is `s…x–y…t` (naming the
    ///   endpoints to fit), and neither subpath uses the edge, so `dx(s)`
    ///   and `dy(t)` are unchanged. Were `dy(s)` unchanged too, then
    ///   `Dis_old(s, t) ≤ dy(s) + dy(t) ≤ dx(s) + 1 + dy(t) = Dis_new(s, t)`,
    ///   but an insert can only shorten a distance, and this one changed.
    /// * *Delete.* Take an old shortest path `s…x–y…t`. `dx(s)` is
    ///   unchanged, and `dy_old(s) = dx(s) + 1`. Were `dy(s)` unchanged, the
    ///   new graph would have an `s`–`y` path of length `dx(s) + 1`, and
    ///   `y…t` survives, so `Dis_new ≤ Dis_old`. But a delete can only
    ///   lengthen a distance, and this one changed.
    /// * The argument for `t` is symmetric.
    ///
    /// So every vertex outside `A` keeps its exact BFS levels, hence its
    /// `c` and its lists, and every changed pair is rebuilt under its
    /// smaller endpoint. Connectivity changes only if `x` reaches `y` on
    /// exactly one side of the edit; the components are then relabelled
    /// from the distance arrays already in hand
    /// ([`Components::relabel_reached`]).
    ///
    /// Returns `A` in ascending vertex order, each vertex `s` paired with
    /// `min(dx_old(s), dy_old(s))`, its pre-edit distance to the nearer
    /// endpoint: the input of the serving caches' locality rule.
    pub fn apply_update<A: Adjacency>(
        &mut self,
        graph: &A,
        update: EdgeUpdate,
    ) -> Vec<(VertexId, u32)> {
        debug_assert_eq!(graph.num_vertices(), self.n, "graph/index size mismatch");
        let EdgeUpdate { x, y, dx_old, dy_old } = update;
        let mut scratch = BfsScratch::new(self.n);
        let dx_new = distances_from(graph, x, &mut scratch);
        let dy_new = distances_from(graph, y, &mut scratch);

        let mut moved = Vec::new();
        for s in 0..self.n {
            if dx_old[s] != dx_new[s] || dy_old[s] != dy_new[s] {
                let v = VertexId::new(s);
                let (cv, fwd, rev) = build_vertex(graph, v, &mut scratch);
                self.c[s] = cv;
                self.forward[s] = fwd;
                self.reverse[s] = rev;
                moved.push((v, dx_old[s].min(dy_old[s])));
            }
        }

        let reached_before = dx_old[y.index()] != u32::MAX;
        let reached_after = dx_new[y.index()] != u32::MAX;
        if !reached_before && reached_after {
            // Join: y's old component takes x's label.
            let label = self.components.label(x);
            self.components.relabel_reached(&dy_old, label);
        } else if reached_before && !reached_after {
            // Split: y's new component takes a fresh label.
            let fresh = self.components.count() as u32;
            self.components.relabel_reached(&dy_new, fresh);
        }
        moved
    }
}

/// Pre-mutation snapshot for [`NlrnlIndex::apply_update`].
pub struct EdgeUpdate {
    x: VertexId,
    y: VertexId,
    dx_old: Vec<u32>,
    dy_old: Vec<u32>,
}

/// Full single-source distances (`u32::MAX` = unreachable).
fn distances_from<A: Adjacency>(graph: &A, source: VertexId, scratch: &mut BfsScratch) -> Vec<u32> {
    let mut dist = vec![u32::MAX; graph.num_vertices()];
    dist[source.index()] = 0;
    bfs::bfs_levels(graph, source, usize::MAX, scratch, |v, d| {
        dist[v.index()] = d;
    });
    dist
}

/// Packs full hop levels into the `(c, forward, reverse)` triple with
/// half-storage filtering.
fn assemble_vertex(v: VertexId, full: &[Vec<VertexId>]) -> (u32, LeveledList, LeveledList) {
    let c = argmax_level(full);
    let filter = |levels: &[Vec<VertexId>]| -> Vec<Vec<VertexId>> {
        levels
            .iter()
            .map(|lvl| lvl.iter().copied().filter(|&w| w > v).collect())
            .collect()
    };
    let forward = if c >= 1 { filter(&full[..c - 1]) } else { Vec::new() };
    let reverse = if c >= 1 { filter(full.get(c..).unwrap_or(&[])) } else { Vec::new() };
    (
        c as u32,
        LeveledList::from_levels(&forward),
        LeveledList::from_levels(&reverse),
    )
}

/// Builds one vertex's `(c, forward, reverse)` lists from a full BFS.
/// `c` is chosen on the *full* level widths (the paper's criterion), before
/// half-storage filtering.
fn build_vertex<A: Adjacency>(
    graph: &A,
    v: VertexId,
    scratch: &mut BfsScratch,
) -> (u32, LeveledList, LeveledList) {
    let mut full = bfs::collect_levels(graph, v, usize::MAX, scratch);
    for level in &mut full {
        level.sort_unstable();
    }
    assemble_vertex(v, &full)
}

/// 1-based index of the widest level (0 for no levels); ties pick the
/// shallowest.
fn argmax_level(levels: &[Vec<VertexId>]) -> usize {
    let mut best = 0usize;
    let mut best_len = 0usize;
    for (i, level) in levels.iter().enumerate() {
        if level.len() > best_len {
            best_len = level.len();
            best = i + 1;
        }
    }
    best
}

impl DistanceOracle for NlrnlIndex {
    fn farther_than(&self, u: VertexId, v: VertexId, k: u32) -> bool {
        self.check(u, v, k)
    }

    fn name(&self) -> &'static str {
        "nlrnl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactOracle;
    use ktg_graph::{CsrGraph, DynamicGraph};

    fn assert_matches_exact(g: &CsrGraph, k_max: u32) {
        let idx = NlrnlIndex::build(g);
        let exact = ExactOracle::build(g);
        for u in g.vertices() {
            for v in g.vertices() {
                for k in 0..=k_max {
                    assert_eq!(
                        idx.farther_than(u, v, k),
                        exact.farther_than(u, v, k),
                        "({u:?}, {v:?}, k={k})"
                    );
                }
            }
        }
    }


    /// The partitioned parallel build must be byte-identical for every
    /// worker count — serialize the index and compare the files.
    #[test]
    fn build_is_thread_count_independent() {
        let mut rng = ktg_common::rng::SplitMix64::new(0xD15C_0CE4);
        let n = 120u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for _ in 0..3 {
                let v = (rng.next_u64() % n as u64) as u32;
                if u != v {
                    edges.push((u.min(v), u.max(v)));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let g = CsrGraph::from_edges(n as usize, &edges).unwrap();
        let encode = |threads| {
            crate::persist::encode_nlrnl_section(&NlrnlIndex::build_with_threads(&g, threads))
        };
        let reference = encode(1);
        for threads in [2usize, 3, 5, 8, 16] {
            assert_eq!(encode(threads), reference, "threads={threads} diverged from sequential");
        }
    }

    #[test]
    fn path_all_pairs_all_k() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        assert_matches_exact(&g, 7);
    }

    #[test]
    fn star_all_pairs() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        assert_matches_exact(&g, 4);
    }

    #[test]
    fn disconnected_all_pairs() {
        let g = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        assert_matches_exact(&g, 5);
    }

    #[test]
    fn cycle_all_pairs() {
        let g =
            CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)])
                .unwrap();
        assert_matches_exact(&g, 6);
    }

    #[test]
    fn paper_example_u3_u5() {
        // §V-B's example: checking Dis(u3, u5) > 3 via reverse lists.
        // Reconstruct the Figure 1 topology (see ktg-core fixtures for the
        // full keyword-annotated version).
        let g = CsrGraph::from_edges(
            12,
            &[
                (0, 1), (0, 2), (0, 3), (0, 4), (0, 9), (0, 11),
                (1, 2), (2, 11), (3, 4), (3, 9), (4, 6), (5, 7),
                (6, 7), (6, 8), (7, 10), (9, 8),
            ],
        )
        .unwrap();
        let idx = NlrnlIndex::build(&g);
        let exact = ExactOracle::build(&g);
        assert_eq!(
            idx.farther_than(VertexId(3), VertexId(5), 3),
            exact.farther_than(VertexId(3), VertexId(5), 3)
        );
    }

    #[test]
    fn reverse_space_smaller_than_full_for_dense_level() {
        // On a star the widest level (level 1 of the hub, level 2 of each
        // leaf) is skipped; NLRNL must store strictly fewer entries than NL
        // would.
        let g = CsrGraph::from_edges(8, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)])
            .unwrap();
        let nlrnl = NlrnlIndex::build(&g);
        let nl = crate::nl::NlIndex::build(&g);
        assert!(
            nlrnl.space().forward_bytes + nlrnl.space().reverse_bytes
                < nl.space().forward_bytes,
            "nlrnl {} vs nl {}",
            nlrnl.space().total_bytes(),
            nl.space().total_bytes()
        );
    }

    #[test]
    fn insert_edge_matches_rebuild() {
        let mut g = DynamicGraph::new(6);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (4, 5)] {
            g.insert_edge(VertexId(u), VertexId(v)).unwrap();
        }
        let mut idx = NlrnlIndex::build(&g);
        // Connect the two components.
        let update = idx.prepare_update(&g, VertexId(3), VertexId(4));
        g.insert_edge(VertexId(3), VertexId(4)).unwrap();
        idx.apply_update(&g, update);
        let fresh = NlrnlIndex::build(&g);
        let exact = ExactOracle::build(&g.to_csr());
        for u in 0..6 {
            for v in 0..6 {
                for k in 0..8 {
                    let (u, v) = (VertexId(u), VertexId(v));
                    assert_eq!(idx.farther_than(u, v, k), exact.farther_than(u, v, k));
                    assert_eq!(idx.farther_than(u, v, k), fresh.farther_than(u, v, k));
                }
            }
        }
    }

    #[test]
    fn remove_edge_matches_rebuild() {
        let mut g = DynamicGraph::new(6);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)] {
            g.insert_edge(VertexId(u), VertexId(v)).unwrap();
        }
        let mut idx = NlrnlIndex::build(&g);
        let update = idx.prepare_update(&g, VertexId(2), VertexId(3));
        g.remove_edge(VertexId(2), VertexId(3)).unwrap();
        idx.apply_update(&g, update);
        let exact = ExactOracle::build(&g.to_csr());
        for u in 0..6 {
            for v in 0..6 {
                for k in 0..8 {
                    let (u, v) = (VertexId(u), VertexId(v));
                    assert_eq!(idx.farther_than(u, v, k), exact.farther_than(u, v, k));
                }
            }
        }
    }

    /// Hop distances from `source` by a queue BFS over the replica's
    /// neighbour lists (`u32::MAX` = unreachable).
    fn plain_bfs(g: &DynamicGraph, source: VertexId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; g.num_vertices()];
        dist[source.index()] = 0;
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = dist[u.index()] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// `apply_update`'s invariant: after every edit the maintained index
    /// encodes to the same bytes as a fresh build, and the returned set
    /// holds exactly the vertices whose distance to an endpoint moved,
    /// each with its smaller pre-edit distance. The graphs have several
    /// components and isolated vertices, and the edits cover joins,
    /// splits and edits inside one component.
    #[test]
    fn updates_equal_a_fresh_build_byte_for_byte() {
        use crate::persist::encode_nlrnl_section as encode;
        let mut rng = ktg_common::SeededRng::seed_from_u64(0x5EC7_10A5);
        let (mut joins, mut splits, mut within) = (0usize, 0usize, 0usize);
        for case in 0..200 {
            let n = rng.gen_range(2usize..=40);
            // Edges stay inside blocks; block `blocks` holds isolated vertices.
            let blocks = rng.gen_range(1usize..=4);
            let density = rng.gen_range(0.05..0.4);
            let block: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=blocks)).collect();
            let mut g = DynamicGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if block[u] == block[v] && block[u] < blocks && rng.gen_bool(density) {
                        g.insert_edge(VertexId::new(u), VertexId::new(v)).unwrap();
                    }
                }
            }
            let mut idx = NlrnlIndex::build_with_threads(&g, 1);
            for edit in 0..10 {
                // Half the edits remove an existing edge, when there is one.
                let with_edges: Vec<VertexId> =
                    (0..n).map(VertexId::new).filter(|&v| g.degree(v) > 0).collect();
                let (u, v) = match rng.choose(&with_edges) {
                    Some(&u) if rng.gen_bool(0.5) => (u, *rng.choose(g.neighbors(u)).unwrap()),
                    _ => loop {
                        let u = VertexId::new(rng.gen_range(0..n));
                        let v = VertexId::new(rng.gen_range(0..n));
                        if u != v {
                            break (u, v);
                        }
                    },
                };
                let insert = !g.has_edge(u, v);
                let apart_before = idx.component(u) != idx.component(v);
                let before = [u, v].map(|end| plain_bfs(&g, end));
                let update = idx.prepare_update(&g, u, v);
                if insert {
                    g.insert_edge(u, v).unwrap();
                } else {
                    g.remove_edge(u, v).unwrap();
                }
                let moved = idx.apply_update(&g, update);
                let fresh = NlrnlIndex::build_with_threads(&g, 1);
                assert!(
                    encode(&idx) == encode(&fresh),
                    "case {case} edit {edit}: {} ({u:?}, {v:?}) diverged from a fresh build",
                    if insert { "insert" } else { "remove" }
                );
                let after = [u, v].map(|end| plain_bfs(&g, end));
                let expect: Vec<(VertexId, u32)> = (0..n)
                    .filter(|&s| before[0][s] != after[0][s] || before[1][s] != after[1][s])
                    .map(|s| (VertexId::new(s), before[0][s].min(before[1][s])))
                    .collect();
                assert_eq!(moved, expect, "case {case} edit {edit}: the returned moved set");
                if apart_before {
                    joins += 1;
                } else if fresh.component(u) != fresh.component(v) {
                    splits += 1;
                } else {
                    within += 1;
                }
            }
        }
        assert!(
            joins > 0 && splits > 0 && within > 0,
            "{joins} joins, {splits} splits, {within} within"
        );
    }

    #[test]
    fn k_zero_and_self() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let idx = NlrnlIndex::build(&g);
        assert!(!idx.farther_than(VertexId(1), VertexId(1), 0));
        assert!(idx.farther_than(VertexId(0), VertexId(1), 0));
    }

    /// Differential audit of the `c` boundary (mirror of the NL truncation
    /// audit): the widest level `c` is deliberately unstored, so the
    /// forward regime (`k ≤ c−1`), the reverse regime (`k ≥ c`), and the
    /// handover at exactly `k = c` must all agree with brute-force BFS on
    /// random graphs, including disconnected ones.
    #[test]
    fn c_boundary_matches_bfs_on_random_graphs() {
        let mut rng = ktg_common::SeededRng::seed_from_u64(0xC0FFEE);
        for case in 0..40 {
            let n = rng.gen_range(2usize..18);
            let density = rng.gen_range(0.0..0.5);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(density) {
                        edges.push((u as u32, v as u32));
                    }
                }
            }
            let g = CsrGraph::from_edges(n, &edges).unwrap();
            let idx = NlrnlIndex::build(&g);
            let exact = ExactOracle::build(&g);
            for u in g.vertices() {
                for v in g.vertices() {
                    for k in 0..(n as u32 + 2) {
                        assert_eq!(
                            idx.farther_than(u, v, k),
                            exact.farther_than(u, v, k),
                            "case {case} n={n} ({u:?}, {v:?}, k={k}), c={}",
                            idx.c(u.min(v))
                        );
                    }
                    // The exact-distance recovery shares the boundary math.
                    let truth = exact.distance(u, v);
                    let got = idx.distance(u, v);
                    match truth {
                        u32::MAX => assert_eq!(got, None, "({u:?}, {v:?})"),
                        d => assert_eq!(got, Some(d), "({u:?}, {v:?})"),
                    }
                }
            }
        }
    }
}
