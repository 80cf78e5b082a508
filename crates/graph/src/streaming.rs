//! Bounded-memory streaming graph construction.
//!
//! [`GraphBuilder`](crate::GraphBuilder) buffers the whole edge list and
//! sorts it in one pass — fine to a few million edges, but a 10M-vertex
//! graph's mirrored half-edge array is the allocation spike that caps
//! the substrate (ROADMAP item 2). [`StreamingGraphBuilder`] replaces
//! the monolithic sort with a classic external sort:
//!
//! 1. **Ingest** — edges arrive in any order; both orientations of each
//!    undirected edge are buffered as `(src, dst)` half-edges.
//! 2. **Spill** — when the buffer reaches its chunk capacity it is
//!    sorted, deduplicated, and written to a binary run file (raw
//!    little-endian `u32` pairs), keeping resident memory bounded by
//!    the chunk size regardless of graph size.
//! 3. **Merge** — [`StreamingGraphBuilder::finish`] k-way merges the
//!    runs (plus the final in-memory buffer) with a binary heap,
//!    deduplicates adjacent pairs, and streams the globally sorted
//!    half-edges straight into CSR arrays — no second full-size sort
//!    buffer ever exists.
//!
//! The result is identical to `GraphBuilder` over the same edge
//! multiset (same dedup, same self-loop stripping, same sorted lists) —
//! a differential test holds the two equal — so chunk size and spill
//! count affect memory and wall clock only, never the graph.

use crate::csr::CsrGraph;
use ktg_common::{KtgError, Result, VertexId};
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::Mutex;

/// Default in-memory chunk capacity, in half-edges (≈ 32 MiB buffered).
const DEFAULT_CHUNK: usize = 4 << 20;

/// Process-wide spill-file counter so concurrent builders in one
/// process never collide on run names (the pid disambiguates between
/// processes). A mutex, not an atomic: this is a cold path and keeps
/// the audited-atomics surface unchanged.
static SPILL_SEQ: Mutex<u64> = Mutex::new(0);

fn next_spill_path() -> PathBuf {
    let mut seq = match SPILL_SEQ.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    *seq += 1;
    std::env::temp_dir().join(format!("ktg-spill-{}-{}.run", std::process::id(), *seq))
}

/// External-sort graph builder (module docs).
#[derive(Debug)]
pub struct StreamingGraphBuilder {
    num_vertices: usize,
    chunk_capacity: usize,
    buf: Vec<(u32, u32)>,
    runs: Vec<PathBuf>,
}

impl StreamingGraphBuilder {
    /// Creates a builder for `num_vertices` vertices with the default
    /// chunk capacity.
    pub fn new(num_vertices: usize) -> Self {
        Self::with_chunk_capacity(num_vertices, DEFAULT_CHUNK)
    }

    /// Creates a builder spilling every `chunk_capacity` buffered
    /// half-edges (minimum 2 — one undirected edge).
    pub fn with_chunk_capacity(num_vertices: usize, chunk_capacity: usize) -> Self {
        StreamingGraphBuilder {
            num_vertices,
            chunk_capacity: chunk_capacity.max(2),
            buf: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Number of vertices the graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of spill runs written so far.
    #[cfg(test)]
    fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored.
    ///
    /// # Errors
    /// Returns [`KtgError::InvalidInput`] if either endpoint is out of
    /// range, or [`KtgError::Io`] if a chunk spill fails.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        if u.index() >= self.num_vertices || v.index() >= self.num_vertices {
            return Err(KtgError::input(format!(
                "edge ({u}, {v}) out of range for {} vertices",
                self.num_vertices
            )));
        }
        if u == v {
            return Ok(());
        }
        self.buf.push((u.0, v.0));
        self.buf.push((v.0, u.0));
        if self.buf.len() >= self.chunk_capacity {
            self.spill()?;
        }
        Ok(())
    }

    /// Sorts and writes the current buffer as one run file.
    fn spill(&mut self) -> Result<()> {
        self.buf.sort_unstable();
        self.buf.dedup();
        let path = next_spill_path();
        let mut writer = BufWriter::new(File::create(&path)?);
        for &(s, d) in &self.buf {
            writer.write_all(&s.to_le_bytes())?;
            writer.write_all(&d.to_le_bytes())?;
        }
        writer.flush()?;
        self.runs.push(path);
        self.buf.clear();
        Ok(())
    }

    /// Finalizes into a flat [`CsrGraph`]: k-way merges all runs and the
    /// residual buffer, dropping cross-run duplicates, straight into the
    /// CSR arrays (isolated vertices get empty lists).
    ///
    /// # Errors
    /// Returns [`KtgError::Io`] if reading a spill run fails.
    pub fn finish(mut self) -> Result<CsrGraph> {
        self.buf.sort_unstable();
        self.buf.dedup();

        let mut sources: Vec<RunReader> = Vec::with_capacity(self.runs.len() + 1);
        for path in std::mem::take(&mut self.runs) {
            sources.push(RunReader::open(path)?);
        }
        sources.push(RunReader::from_memory(std::mem::take(&mut self.buf)));

        // Min-heap keyed on (pair, source index): the source index tie
        // break is only reached on duplicates, which are dropped anyway.
        let mut heap: BinaryHeap<std::cmp::Reverse<((u32, u32), usize)>> = BinaryHeap::new();
        for (i, src) in sources.iter_mut().enumerate() {
            if let Some(pair) = src.next_pair()? {
                heap.push(std::cmp::Reverse((pair, i)));
            }
        }

        let n = self.num_vertices;
        let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut neighbors: Vec<VertexId> = Vec::new();
        let mut last: Option<(u32, u32)> = None;
        while let Some(std::cmp::Reverse((pair, i))) = heap.pop() {
            if let Some(next) = sources[i].next_pair()? {
                heap.push(std::cmp::Reverse((next, i)));
            }
            if last == Some(pair) {
                continue; // cross-run duplicate
            }
            last = Some(pair);
            let (s, d) = pair;
            // Close the lists of every vertex before `s`.
            while offsets.len() <= s as usize {
                offsets.push(neighbors.len() as u64);
            }
            neighbors.push(VertexId(d));
        }
        while offsets.len() <= n {
            offsets.push(neighbors.len() as u64);
        }
        CsrGraph::from_sorted_parts(offsets, neighbors)
    }
}

impl Drop for StreamingGraphBuilder {
    fn drop(&mut self) {
        // Best-effort cleanup of any runs not consumed by a finish call.
        for path in &self.runs {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One merge source: a buffered spill file (deleted once drained) or
/// the residual in-memory chunk.
enum RunReader {
    File { reader: BufReader<File>, path: PathBuf, done: bool },
    Memory { pairs: std::vec::IntoIter<(u32, u32)> },
}

impl RunReader {
    fn open(path: PathBuf) -> Result<Self> {
        let reader = BufReader::new(File::open(&path)?);
        Ok(RunReader::File { reader, path, done: false })
    }

    fn from_memory(pairs: Vec<(u32, u32)>) -> Self {
        RunReader::Memory { pairs: pairs.into_iter() }
    }

    fn next_pair(&mut self) -> Result<Option<(u32, u32)>> {
        match self {
            RunReader::Memory { pairs } => Ok(pairs.next()),
            RunReader::File { reader, path, done } => {
                if *done {
                    return Ok(None);
                }
                let mut buf = [0u8; 8];
                let mut filled = 0usize;
                while filled < 8 {
                    let read = reader.read(&mut buf[filled..])?;
                    if read == 0 {
                        break;
                    }
                    filled += read;
                }
                match filled {
                    0 => {
                        *done = true;
                        let _ = std::fs::remove_file(&path);
                        Ok(None)
                    }
                    8 => {
                        let s = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
                        let d = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
                        Ok(Some((s, d)))
                    }
                    _ => Err(KtgError::input(format!(
                        "truncated spill run {} (trailing {filled} bytes)",
                        path.display()
                    ))),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use ktg_common::SeededRng;

    fn random_edges(n: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = SeededRng::seed_from_u64(seed);
        (0..m)
            .map(|_| (rng.bounded_u64(n as u64) as u32, rng.bounded_u64(n as u64) as u32))
            .collect()
    }

    /// The streaming path must equal the monolithic path edge for edge,
    /// at chunk sizes that force zero, some, and many spills.
    #[test]
    fn matches_monolithic_builder_across_chunk_sizes() {
        let n = 300u32;
        let edges = random_edges(n, 2000, 0xFEED);
        let mut mono = GraphBuilder::new(n as usize);
        for &(u, v) in &edges {
            mono.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        let expected = mono.build();

        for chunk in [usize::MAX, 4096, 512, 64, 2] {
            let mut b = StreamingGraphBuilder::with_chunk_capacity(n as usize, chunk);
            for &(u, v) in &edges {
                b.add_edge(VertexId(u), VertexId(v)).unwrap();
            }
            let spills = b.spilled_runs();
            if chunk <= 512 {
                assert!(spills > 1, "chunk {chunk} never spilled");
            }
            assert_eq!(b.finish().unwrap(), expected, "chunk {chunk} ({spills} spills)");
        }
    }

    #[test]
    fn self_loops_and_duplicates_collapse() {
        let mut b = StreamingGraphBuilder::with_chunk_capacity(4, 2);
        for (u, v) in [(0, 0), (0, 1), (1, 0), (0, 1), (2, 3), (3, 3)] {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        let g = b.finish().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(VertexId(0)), &[VertexId(1)]);
        assert_eq!(g.neighbors(VertexId(3)), &[VertexId(2)]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = StreamingGraphBuilder::new(3);
        assert!(b.add_edge(VertexId(0), VertexId(3)).is_err());
    }

    #[test]
    fn empty_and_isolated() {
        let b = StreamingGraphBuilder::new(0);
        assert_eq!(b.finish().unwrap().num_vertices(), 0);
        let mut b = StreamingGraphBuilder::new(5);
        b.add_edge(VertexId(1), VertexId(2)).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(VertexId(4)), 0);
    }

    #[test]
    fn spill_files_are_cleaned_up() {
        let mut b = StreamingGraphBuilder::with_chunk_capacity(50, 8);
        for (u, v) in random_edges(50, 200, 7) {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        assert!(b.spilled_runs() > 0);
        // Capture the run paths, finish, and verify they are gone.
        let paths: Vec<PathBuf> = b.runs.clone();
        let _ = b.finish().unwrap();
        for p in paths {
            assert!(!p.exists(), "{} not cleaned up", p.display());
        }
    }
}
