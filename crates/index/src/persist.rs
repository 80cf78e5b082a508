//! Index persistence: the bundle.
//!
//! NL/NLRNL construction costs one BFS per vertex — minutes on large
//! graphs — which is the entire reason the indexes exist. A production
//! deployment builds once and reloads. [`save_bundle`]/[`load_bundle`]
//! persist a *whole attributed network* — the flat CSR topology, the
//! keyword vocabulary + per-vertex keyword arena, and optionally the
//! NLRNL index (the recommended one; NL's query-time expansion cache
//! makes persisting it pointless — rebuilding is as cheap as reloading)
//! — as one file.
//!
//! ## Format
//!
//! Little-endian throughout:
//!
//! ```text
//! magic        8 bytes  "KTGBNDL_"
//! version      u32      currently 1
//! layout       u32      always 0 (flat CSR); anything else is rejected
//! n            u64      vertex count
//! fingerprint  u64      graph fingerprint (vertex count, edge count, degrees)
//! sections     u32      2 or 3: graph, keywords, optional NLRNL index
//! per section: tag u32, len u64, then len payload bytes
//! checksum     u64      Fx hash of everything after the magic
//! ```
//!
//! Section payloads are arrays written and read in bulk (one length word,
//! then the raw little-endian element run), so reloading a pre-built
//! 10M-vertex network is bounded by I/O, not per-entry parsing. The
//! checksum guards every byte; the fingerprint is checked against the
//! reloaded graph section only. The NLRNL section is tied to the graph
//! by its vertex count and by being written in the same checksummed
//! file, never loaded against a separately supplied graph.

use crate::leveled::LeveledList;
use crate::nlrnl::NlrnlIndex;
use ktg_common::id::vertex_range;
use ktg_common::{KtgError, Result, VertexId};
use ktg_graph::{Adjacency, CsrGraph};
use ktg_keywords::{KeywordId, VertexKeywords, Vocabulary};
use std::hash::Hasher;
use std::io::{BufReader, BufWriter, Read, Write};

const BUNDLE_MAGIC: &[u8; 8] = b"KTGBNDL_";
const VERSION: u32 = 1;
/// The header's layout word: flat CSR is the only layout written or read.
const LAYOUT_FLAT: u32 = 0;

/// Bundle section tags (fixed order: graph, keywords, optional index).
const SECTION_GRAPH: u32 = 1;
const SECTION_KEYWORDS: u32 = 2;
const SECTION_NLRNL: u32 = 3;

/// A fingerprint of a graph's shape (vertex count, edge count, degree
/// sequence), stored in the bundle header and re-checked on load.
pub fn graph_fingerprint<A: Adjacency>(graph: &A) -> u64 {
    let mut h = ktg_common::FxHasher64::default();
    h.write_u64(graph.num_vertices() as u64);
    h.write_u64(graph.num_edges() as u64);
    for v in vertex_range(graph.num_vertices()) {
        h.write_u32(graph.degree(v) as u32);
    }
    h.finish()
}

/// A hasher-wrapped writer so the checksum streams with the payload.
struct ChecksumWriter<W: Write> {
    inner: W,
    hasher: ktg_common::FxHasher64,
}

impl<W: Write> ChecksumWriter<W> {
    fn new(inner: W) -> Self {
        ChecksumWriter { inner, hasher: ktg_common::FxHasher64::default() }
    }

    fn write_u32(&mut self, v: u32) -> Result<()> {
        self.hasher.write(&v.to_le_bytes());
        self.inner.write_all(&v.to_le_bytes())?;
        Ok(())
    }

    fn write_u64(&mut self, v: u64) -> Result<()> {
        self.hasher.write(&v.to_le_bytes());
        self.inner.write_all(&v.to_le_bytes())?;
        Ok(())
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.hasher.write(bytes);
        self.inner.write_all(bytes)?;
        Ok(())
    }

    fn checksum(&self) -> u64 {
        self.hasher.finish()
    }
}

struct ChecksumReader<R: Read> {
    inner: R,
    hasher: ktg_common::FxHasher64,
}

impl<R: Read> ChecksumReader<R> {
    fn new(inner: R) -> Self {
        ChecksumReader { inner, hasher: ktg_common::FxHasher64::default() }
    }

    fn read_u32(&mut self) -> Result<u32> {
        let mut buf = [0u8; 4];
        self.inner.read_exact(&mut buf)?;
        self.hasher.write(&buf);
        Ok(u32::from_le_bytes(buf))
    }

    fn read_u64(&mut self) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.inner.read_exact(&mut buf)?;
        self.hasher.write(&buf);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a whole length-prefixed section payload. The buffer grows
    /// incrementally via `take`, so an over-length count from a corrupt
    /// header hits EOF and errors instead of over-allocating.
    fn read_section(&mut self, len: u64) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        (&mut self.inner).take(len).read_to_end(&mut buf)?;
        if buf.len() as u64 != len {
            return Err(KtgError::input("corrupt bundle: truncated section"));
        }
        self.hasher.write(&buf);
        Ok(buf)
    }

    fn checksum(&self) -> u64 {
        self.hasher.finish()
    }
}

/// Validates that deserialized component labels are dense in `0..count`
/// (the invariant `Components::from_labels` assumes) without panicking on
/// corrupt input.
fn validate_component_labels(labels: &[u32]) -> Result<()> {
    let n = labels.len();
    if labels.iter().any(|&l| l as usize >= n.max(1)) {
        return Err(KtgError::input("corrupt index: component label out of range"));
    }
    let count = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    let mut seen = vec![false; count];
    for &l in labels {
        seen[l as usize] = true;
    }
    if seen.iter().any(|&s| !s) {
        return Err(KtgError::input("corrupt index: component labels not dense"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Bundles: graph + keywords + optional NLRNL in one file.
// ---------------------------------------------------------------------------

/// A fully reloaded attributed network (module docs, "Format").
pub struct Bundle {
    /// The topology.
    pub graph: CsrGraph,
    /// The keyword vocabulary.
    pub vocab: Vocabulary,
    /// The per-vertex keyword arena.
    pub keywords: VertexKeywords,
    /// The NLRNL index, when one was bundled.
    pub index: Option<NlrnlIndex>,
}

/// Little-endian in-memory section encoder (bulk array runs).
fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u32_run(buf: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = u32>) {
    push_u64(buf, vals.len() as u64);
    buf.reserve(vals.len() * 4);
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn push_u64_run(buf: &mut Vec<u8>, vals: &[u64]) {
    push_u64(buf, vals.len() as u64);
    buf.reserve(vals.len() * 8);
    for &v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn push_byte_run(buf: &mut Vec<u8>, bytes: &[u8]) {
    push_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Cursor over one section's payload; every read is bounds-checked against
/// the section length, so a corrupt count can never over-allocate past the
/// bytes actually present.
struct SectionCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionCursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        SectionCursor { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| KtgError::input("corrupt bundle: section over-read"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn read_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn read_len(&mut self) -> Result<usize> {
        let len = self.read_u64()?;
        usize::try_from(len).map_err(|_| KtgError::input("corrupt bundle: length overflows"))
    }

    fn read_u32_run(&mut self) -> Result<Vec<u32>> {
        let count = self.read_len()?;
        let bytes = self.take(count.checked_mul(4).ok_or_else(|| {
            KtgError::input("corrupt bundle: length overflows")
        })?)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    fn read_u64_run(&mut self) -> Result<Vec<u64>> {
        let count = self.read_len()?;
        let bytes = self.take(count.checked_mul(8).ok_or_else(|| {
            KtgError::input("corrupt bundle: length overflows")
        })?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(c);
                u64::from_le_bytes(raw)
            })
            .collect())
    }

    fn read_byte_run(&mut self) -> Result<Vec<u8>> {
        let count = self.read_len()?;
        Ok(self.take(count)?.to_vec())
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(KtgError::input("corrupt bundle: trailing bytes in section"));
        }
        Ok(())
    }
}

fn encode_graph_section(graph: &CsrGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    push_u64_run(&mut buf, graph.raw_offsets());
    push_u32_run(&mut buf, graph.raw_neighbors().iter().map(|v| v.0));
    buf
}

fn decode_graph_section(payload: &[u8]) -> Result<CsrGraph> {
    let mut cur = SectionCursor::new(payload);
    let offsets = cur.read_u64_run()?;
    let neighbors = cur.read_u32_run()?.into_iter().map(VertexId).collect();
    let graph = CsrGraph::from_sorted_parts(offsets, neighbors)?;
    cur.finish()?;
    Ok(graph)
}

fn encode_keyword_section(vocab: &Vocabulary, keywords: &VertexKeywords) -> Vec<u8> {
    let mut buf = Vec::new();
    // Vocabulary: one concatenated UTF-8 blob plus term end offsets.
    let mut term_ends: Vec<u64> = Vec::with_capacity(vocab.len());
    let mut blob: Vec<u8> = Vec::new();
    for term in vocab.terms() {
        blob.extend_from_slice(term.as_bytes());
        term_ends.push(blob.len() as u64);
    }
    push_u64_run(&mut buf, &term_ends);
    push_byte_run(&mut buf, &blob);
    // Per-vertex arena: offsets + keyword ids, both bulk.
    push_u64_run(&mut buf, keywords.raw_offsets());
    push_u32_run(&mut buf, keywords.raw_keywords().iter().map(|k| k.0));
    buf
}

fn decode_keyword_section(payload: &[u8]) -> Result<(Vocabulary, VertexKeywords)> {
    let mut cur = SectionCursor::new(payload);
    let term_ends = cur.read_u64_run()?;
    let blob = cur.read_byte_run()?;
    let mut terms = Vec::with_capacity(term_ends.len());
    let mut start = 0usize;
    for &end in &term_ends {
        let end = usize::try_from(end)
            .ok()
            .filter(|&e| e >= start && e <= blob.len())
            .ok_or_else(|| KtgError::input("corrupt bundle: vocabulary offsets invalid"))?;
        let term = std::str::from_utf8(&blob[start..end])
            .map_err(|_| KtgError::input("corrupt bundle: vocabulary term not UTF-8"))?;
        terms.push(term.to_owned());
        start = end;
    }
    if start != blob.len() {
        return Err(KtgError::input("corrupt bundle: vocabulary blob not covered"));
    }
    let vocab = Vocabulary::from_terms(terms)?;
    let offsets = cur.read_u64_run()?;
    let ids = cur.read_u32_run()?;
    if ids.iter().any(|&k| k as usize >= vocab.len()) {
        return Err(KtgError::input("corrupt bundle: keyword id out of vocabulary"));
    }
    let arena = VertexKeywords::from_raw_parts(offsets, ids.into_iter().map(KeywordId).collect())?;
    cur.finish()?;
    Ok((vocab, arena))
}

/// Encodes the NLRNL section payload (also the byte-level identity the
/// build-determinism test compares).
pub(crate) fn encode_nlrnl_section(index: &NlrnlIndex) -> Vec<u8> {
    let n = index.num_vertices();
    let mut buf = Vec::new();
    push_u32_run(&mut buf, vertex_range(n).map(|v| index.c(v)));
    push_u32_run(&mut buf, vertex_range(n).map(|v| index.component(v)));
    for lists in [
        NlrnlIndex::forward_lists as fn(&NlrnlIndex, VertexId) -> &LeveledList,
        NlrnlIndex::reverse_lists,
    ] {
        push_u32_run(&mut buf, vertex_range(n).map(|v| lists(index, v).num_levels() as u32));
        let total_bounds: usize = vertex_range(n).map(|v| lists(index, v).num_levels()).sum();
        push_u64(&mut buf, total_bounds as u64);
        buf.reserve(total_bounds * 4);
        for v in vertex_range(n) {
            for &b in lists(index, v).raw_bounds() {
                buf.extend_from_slice(&b.to_le_bytes());
            }
        }
        let total_data: usize = vertex_range(n).map(|v| lists(index, v).total_len()).sum();
        push_u64(&mut buf, total_data as u64);
        buf.reserve(total_data * 4);
        for v in vertex_range(n) {
            for &x in lists(index, v).raw_data() {
                buf.extend_from_slice(&x.0.to_le_bytes());
            }
        }
    }
    buf
}

fn decode_nlrnl_section(payload: &[u8], n: usize) -> Result<NlrnlIndex> {
    let mut cur = SectionCursor::new(payload);
    let c = cur.read_u32_run()?;
    let components = cur.read_u32_run()?;
    if c.len() != n || components.len() != n {
        return Err(KtgError::input("corrupt bundle: index tables do not match |V|"));
    }
    let mut sides: Vec<Vec<LeveledList>> = Vec::with_capacity(2);
    for _ in 0..2 {
        let num_levels = cur.read_u32_run()?;
        if num_levels.len() != n {
            return Err(KtgError::input("corrupt bundle: level-count table does not match |V|"));
        }
        let bounds = cur.read_u32_run()?;
        let data = cur.read_u32_run()?;
        if let Some(&bad) = data.iter().find(|&&x| x as usize >= n) {
            return Err(KtgError::input(format!(
                "corrupt bundle: index entry {bad} out of range for {n} vertices"
            )));
        }
        let mut lists = Vec::with_capacity(n);
        let mut bcur = 0usize;
        let mut dcur = 0usize;
        for &levels in &num_levels {
            let levels = levels as usize;
            let bend = bcur
                .checked_add(levels)
                .filter(|&e| e <= bounds.len())
                .ok_or_else(|| KtgError::input("corrupt bundle: bounds table truncated"))?;
            let vb = bounds[bcur..bend].to_vec();
            let dlen = vb.last().copied().unwrap_or(0) as usize;
            let dend = dcur
                .checked_add(dlen)
                .filter(|&e| e <= data.len())
                .ok_or_else(|| KtgError::input("corrupt bundle: data table truncated"))?;
            let vd = data[dcur..dend].iter().copied().map(VertexId).collect();
            lists.push(LeveledList::from_flat(vd, vb)?);
            bcur = bend;
            dcur = dend;
        }
        if bcur != bounds.len() || dcur != data.len() {
            return Err(KtgError::input("corrupt bundle: index tables not fully covered"));
        }
        sides.push(lists);
    }
    cur.finish()?;
    let reverse = sides.pop().unwrap_or_default();
    let forward = sides.pop().unwrap_or_default();
    validate_component_labels(&components)?;
    Ok(NlrnlIndex::from_parts(n, c, forward, reverse, components))
}

/// Serializes a whole attributed network — graph, vocabulary, keyword
/// arena, and optionally an NLRNL index — as one checksummed bundle. The
/// index, when present, must have been built over `graph`; only its vertex
/// count is checked here.
///
/// # Errors
/// [`KtgError::InvalidInput`] when the parts disagree on the vertex count;
/// I/O errors from the writer.
pub fn save_bundle<W: Write>(
    graph: &CsrGraph,
    vocab: &Vocabulary,
    keywords: &VertexKeywords,
    index: Option<&NlrnlIndex>,
    writer: W,
) -> Result<()> {
    let n = graph.num_vertices();
    if keywords.num_vertices() != n {
        return Err(KtgError::input(format!(
            "keyword arena covers {} vertices, graph has {n}",
            keywords.num_vertices()
        )));
    }
    if let Some(idx) = index {
        if idx.num_vertices() != n {
            return Err(KtgError::input(format!(
                "index covers {} vertices, graph has {n}",
                idx.num_vertices()
            )));
        }
    }
    let mut w = BufWriter::new(writer);
    w.write_all(BUNDLE_MAGIC)?;
    let mut cw = ChecksumWriter::new(&mut w);
    cw.write_u32(VERSION)?;
    cw.write_u32(LAYOUT_FLAT)?;
    cw.write_u64(n as u64)?;
    cw.write_u64(graph_fingerprint(graph))?;
    cw.write_u32(if index.is_some() { 3 } else { 2 })?;
    // One encoded payload at a time: each is written and dropped before
    // the next is encoded, so a save (a server checkpoint included) holds
    // at most one section's bytes in memory.
    let mut write_section = |tag: u32, payload: Vec<u8>| -> Result<()> {
        cw.write_u32(tag)?;
        cw.write_u64(payload.len() as u64)?;
        cw.write_bytes(&payload)
    };
    write_section(SECTION_GRAPH, encode_graph_section(graph))?;
    write_section(SECTION_KEYWORDS, encode_keyword_section(vocab, keywords))?;
    if let Some(idx) = index {
        write_section(SECTION_NLRNL, encode_nlrnl_section(idx))?;
    }
    let checksum = cw.checksum();
    w.write_all(&checksum.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Deserializes a bundle written by [`save_bundle`], validating magic,
/// version, section structure, every per-structure invariant, the graph
/// fingerprint, and the trailing checksum.
///
/// # Errors
/// [`KtgError::InvalidInput`] on corruption (truncation, bad magic or
/// version, over-length sections, structural violations) — never a panic;
/// [`KtgError::IndexMismatch`] when the embedded fingerprint does not
/// match the reloaded graph.
pub fn load_bundle<R: Read>(reader: R) -> Result<Bundle> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BUNDLE_MAGIC {
        return Err(KtgError::input("not a KTG bundle file"));
    }
    let mut cr = ChecksumReader::new(&mut r);
    let version = cr.read_u32()?;
    if version != VERSION {
        return Err(KtgError::input(format!(
            "unsupported bundle version {version} (expected {VERSION})"
        )));
    }
    let layout = cr.read_u32()?;
    if layout != LAYOUT_FLAT {
        return Err(KtgError::input(format!(
            "unsupported bundle graph layout {layout}: only the flat layout (0) loads; \
             rebuild the bundle with `ktg index --bundle`"
        )));
    }
    let n = usize::try_from(cr.read_u64()?)
        .map_err(|_| KtgError::input("corrupt bundle: vertex count overflows"))?;
    let fingerprint = cr.read_u64()?;
    let num_sections = cr.read_u32()?;
    if !(2..=3).contains(&num_sections) {
        return Err(KtgError::input(format!(
            "corrupt bundle: expected 2 or 3 sections, found {num_sections}"
        )));
    }

    let mut graph: Option<CsrGraph> = None;
    let mut kw: Option<(Vocabulary, VertexKeywords)> = None;
    let mut index: Option<NlrnlIndex> = None;
    for i in 0..num_sections {
        let tag = cr.read_u32()?;
        let len = cr.read_u64()?;
        let payload = cr.read_section(len)?;
        match (i, tag) {
            (0, SECTION_GRAPH) => graph = Some(decode_graph_section(&payload)?),
            (1, SECTION_KEYWORDS) => kw = Some(decode_keyword_section(&payload)?),
            (2, SECTION_NLRNL) => index = Some(decode_nlrnl_section(&payload, n)?),
            _ => {
                return Err(KtgError::input(format!(
                    "corrupt bundle: unexpected section tag {tag} at position {i}"
                )))
            }
        }
    }
    let expected = cr.checksum();
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    if u64::from_le_bytes(buf) != expected {
        return Err(KtgError::input("corrupt bundle: checksum mismatch"));
    }

    let graph = graph.ok_or_else(|| KtgError::input("corrupt bundle: missing graph section"))?;
    let (vocab, keywords) =
        kw.ok_or_else(|| KtgError::input("corrupt bundle: missing keyword section"))?;
    if graph.num_vertices() != n {
        return Err(KtgError::input(format!(
            "corrupt bundle: graph section covers {} vertices, header says {n}",
            graph.num_vertices()
        )));
    }
    if keywords.num_vertices() != n {
        return Err(KtgError::input(format!(
            "corrupt bundle: keyword arena covers {} vertices, header says {n}",
            keywords.num_vertices()
        )));
    }
    if graph_fingerprint(&graph) != fingerprint {
        return Err(KtgError::IndexMismatch(
            "bundle fingerprint does not match its own graph section".to_string(),
        ));
    }
    Ok(Bundle { graph, vocab, keywords, index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DistanceOracle;

    fn sample_graph() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 7)],
        )
        .unwrap()
    }

    fn sample_bundle_parts() -> (CsrGraph, Vocabulary, VertexKeywords) {
        let graph = sample_graph();
        let mut vocab = Vocabulary::new();
        let ids = vocab.intern_all(["db", "ir", "ml", "hci"]);
        let mut lists = vec![Vec::new(); graph.num_vertices()];
        for (i, list) in lists.iter_mut().enumerate() {
            list.push(ids[i % ids.len()]);
            if i % 2 == 0 {
                list.push(ids[(i + 1) % ids.len()]);
            }
            list.sort_unstable();
            list.dedup();
        }
        (graph, vocab, VertexKeywords::from_lists(&lists))
    }

    #[test]
    fn bundle_roundtrip_with_index() {
        let (graph, vocab, keywords) = sample_bundle_parts();
        let index = NlrnlIndex::build(&graph);
        let mut buf = Vec::new();
        save_bundle(&graph, &vocab, &keywords, Some(&index), &mut buf).unwrap();
        let bundle = load_bundle(buf.as_slice()).unwrap();
        assert_eq!(bundle.graph, graph, "graph reloads byte-identically");
        assert_eq!(bundle.vocab.terms(), vocab.terms());
        assert_eq!(bundle.keywords, keywords);
        let loaded = bundle.index.expect("index section present");
        for u in graph.vertices() {
            for v in graph.vertices() {
                assert_eq!(loaded.distance(u, v), index.distance(u, v), "({u:?},{v:?})");
                for k in 0..6 {
                    assert_eq!(
                        loaded.farther_than(u, v, k),
                        index.farther_than(u, v, k),
                        "({u:?},{v:?},k={k})"
                    );
                }
            }
        }
    }

    #[test]
    fn bundle_roundtrip_without_index() {
        let (graph, vocab, keywords) = sample_bundle_parts();
        let mut buf = Vec::new();
        save_bundle(&graph, &vocab, &keywords, None, &mut buf).unwrap();
        let bundle = load_bundle(buf.as_slice()).unwrap();
        assert!(bundle.index.is_none());
        assert_eq!(bundle.graph, graph);
    }

    /// The full corruption suite: every damage mode returns a typed error,
    /// never a panic.
    #[test]
    fn bundle_corruption_suite() {
        let (graph, vocab, keywords) = sample_bundle_parts();
        let index = NlrnlIndex::build(&graph);
        let mut buf = Vec::new();
        save_bundle(&graph, &vocab, &keywords, Some(&index), &mut buf).unwrap();

        // Truncated header: cut inside the fixed fields.
        for cut in [0usize, 4, 9, 14, 20] {
            match load_bundle(&buf[..cut]) {
                Err(KtgError::InvalidInput(_)) | Err(KtgError::Io(_)) => {}
                other => panic!("cut={cut}: must fail typed, ok={}", other.is_ok()),
            }
        }

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(load_bundle(bad.as_slice()), Err(KtgError::InvalidInput(_))));

        // Bad version.
        let mut bad = buf.clone();
        bad[8] = 0xEE;
        assert!(matches!(load_bundle(bad.as_slice()), Err(KtgError::InvalidInput(_))));

        // A layout word other than 0 (flat) is rejected before the
        // checksum is read, with the rebuild hint.
        let mut bad = buf.clone();
        bad[12..16].copy_from_slice(&1u32.to_le_bytes());
        match load_bundle(bad.as_slice()) {
            Err(KtgError::InvalidInput(msg)) => assert!(msg.contains("ktg index --bundle"), "{msg}"),
            other => panic!("format word 1 must fail InvalidInput, ok={}", other.is_ok()),
        }

        // Fingerprint mismatch (flip a fingerprint byte, keep structure):
        // the checksum catches it first unless we also re-seal, so damage
        // the fingerprint AND accept either typed error — never a panic.
        let mut bad = buf.clone();
        bad[16] ^= 0x01;
        match load_bundle(bad.as_slice()) {
            Err(KtgError::InvalidInput(_)) | Err(KtgError::IndexMismatch(_)) => {}
            other => panic!("fingerprint damage must fail typed, got {:?}", other.is_ok()),
        }

        // Over-length section: grow the first section's declared length
        // far past the file end.
        let mut bad = buf.clone();
        let section_len_at = 8 + 4 + 4 + 8 + 8 + 4 + 4; // magic..num_sections + tag
        bad[section_len_at..section_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match load_bundle(bad.as_slice()) {
            Err(KtgError::InvalidInput(_)) | Err(KtgError::Io(_)) => {}
            other => panic!("over-length section must fail typed, got {:?}", other.is_ok()),
        }

        // Truncations at every eighth byte: typed errors all the way down.
        for cut in (0..buf.len()).step_by(8) {
            assert!(load_bundle(&buf[..cut]).is_err(), "cut={cut} must fail");
        }

        // Random payload bit flips: checksum or structural validation
        // rejects; reloads that fail do so with a typed error.
        for i in (24..buf.len()).step_by(37) {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            if let Err(e) = load_bundle(bad.as_slice()) {
                assert!(
                    matches!(e, KtgError::InvalidInput(_) | KtgError::IndexMismatch(_) | KtgError::Io(_)),
                    "flip at {i}: unexpected error kind {e}"
                );
            }
        }
    }

    #[test]
    fn bundle_rejects_mismatched_parts() {
        let (graph, vocab, _) = sample_bundle_parts();
        let short = VertexKeywords::from_lists(&vec![Vec::new(); 3]);
        let mut buf = Vec::new();
        assert!(save_bundle(&graph, &vocab, &short, None, &mut buf).is_err());
    }

    #[test]
    fn fingerprint_sensitive_to_edges() {
        let a = sample_graph();
        let b = CsrGraph::from_edges(8, &[(0, 1)]).unwrap();
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
    }
}
