//! Pluggable posting-list codecs for frequency-sorted inverted lists.
//!
//! The paper assumes the compression of [PZSD96]: a raw 6-byte
//! `(d, f_{d,t})` entry (4-byte document id + 2-byte frequency) shrinks
//! to ≈1 byte, which is what makes 404 entries fit in a tenth of a 4 KB
//! page (§4.2). The golden codec implements the scheme that
//! frequency-sorted lists make natural:
//!
//! * entries are grouped into **runs of equal frequency** (the sort
//!   order guarantees runs are contiguous and frequencies decrease);
//! * each run header stores the *drop* from the previous frequency and
//!   the run length, both variable-byte coded;
//! * document ids within a run are ascending, so they are coded as
//!   v-byte **gaps**.
//!
//! On a skewed collection most postings have `f_{d,t} = 1` and land in
//! one giant run of small gaps, approaching 1–1.5 bytes per entry.
//!
//! Around that baseline this module defines the [`ListCodec`] trait and
//! one alternative that shrinks lists further, so more entries fit a
//! page and the paper's `d_t = max(p_t − b_t, 0)` falls:
//! [`RePairCodec`], an offline pair-replacement grammar (Re-Pair)
//! layered over the golden byte stream. A shared grammar is trained
//! once per index, persisted with the page file, and each list is
//! either re-encoded as fixed-width grammar symbols or stored as
//! golden bytes, whichever is smaller. Decode expands symbols through
//! precomputed phrase expansions back to golden bytes.
//!
//! Every decode records on the global `ir-observe` registry: the
//! legacy `index.pages_decoded` / `index.bytes_decompressed` counters
//! (unchanged semantics) plus a per-codec `index.decode_ns.<codec>`
//! nanosecond histogram and `index.decoded_entries.<codec>` counter,
//! from which report layers derive decode µs/entry per codec.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ir_types::{is_frequency_sorted, DocId, Posting};
use std::sync::Arc;

/// Aggregate codec statistics for a whole index build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Entries encoded.
    pub n_postings: u64,
    /// Size at the paper's raw 6 bytes/entry.
    pub raw_bytes: u64,
    /// Encoded size.
    pub compressed_bytes: u64,
}

impl CompressionStats {
    /// Mean encoded bytes per entry.
    pub fn bytes_per_entry(&self) -> f64 {
        if self.n_postings == 0 {
            0.0
        } else {
            self.compressed_bytes as f64 / self.n_postings as f64
        }
    }

    /// Accumulates another batch.
    pub fn add(&mut self, other: CompressionStats) {
        self.n_postings += other.n_postings;
        self.raw_bytes += other.raw_bytes;
        self.compressed_bytes += other.compressed_bytes;
    }
}

/// Per-codec [`CompressionStats`], one slot per [`Codec`] — the
/// `table4` experiment prints one row per codec from this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecStats {
    per: [CompressionStats; Codec::ALL.len()],
}

impl CodecStats {
    /// Accumulates a batch under one codec.
    pub fn add(&mut self, codec: Codec, stats: CompressionStats) {
        self.per[codec.index()].add(stats);
    }

    /// The aggregate for one codec.
    pub fn get(&self, codec: Codec) -> CompressionStats {
        self.per[codec.index()]
    }

    /// Iterates `(codec, stats)` in [`Codec::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Codec, CompressionStats)> + '_ {
        Codec::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

/// Decode counters on the global registry, resolved once: the name
/// lookup takes a short lock, the per-decode bumps are lock-free.
fn decode_counters() -> &'static (ir_observe::Counter, ir_observe::Counter) {
    static COUNTERS: std::sync::OnceLock<(ir_observe::Counter, ir_observe::Counter)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = ir_observe::global();
        (
            registry.counter("index.pages_decoded"),
            registry.counter("index.bytes_decompressed"),
        )
    })
}

/// Per-codec decode meters: a nanosecond latency histogram and an
/// entries-decoded counter, both on the global registry.
struct DecodeMeters {
    decode_ns: ir_observe::Histogram,
    entries: ir_observe::Counter,
}

fn decode_meters(codec: Codec) -> &'static DecodeMeters {
    static METERS: std::sync::OnceLock<[DecodeMeters; Codec::ALL.len()]> =
        std::sync::OnceLock::new();
    &METERS.get_or_init(|| {
        let registry = ir_observe::global();
        Codec::ALL.map(|c| DecodeMeters {
            decode_ns: registry.histogram(
                &format!("index.decode_ns.{}", c.name()),
                &ir_observe::DECODE_NS_BOUNDS,
            ),
            entries: registry.counter(&format!("index.decoded_entries.{}", c.name())),
        })
    })[codec.index()]
}

fn put_vbyte(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte | 0x80); // high bit terminates
            return;
        }
        buf.put_u8(byte);
    }
}

fn get_vbyte(buf: &mut Bytes) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() || shift >= 64 {
            return None;
        }
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 != 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Encodes frequency-sorted postings.
///
/// # Panics
/// Panics if `postings` is not in frequency order (`f` desc, `d` asc) —
/// the builder guarantees the order; violating it would corrupt gaps.
pub fn encode_postings(postings: &[Posting]) -> Bytes {
    assert!(
        is_frequency_sorted(postings),
        "encode_postings requires frequency-sorted input"
    );
    let mut buf = BytesMut::with_capacity(postings.len() * 2);
    put_vbyte(&mut buf, postings.len() as u64);
    let mut i = 0usize;
    let mut prev_freq: Option<u32> = None;
    while i < postings.len() {
        let freq = postings[i].freq;
        let mut j = i;
        while j < postings.len() && postings[j].freq == freq {
            j += 1;
        }
        // Run header: frequency drop (first run stores the frequency
        // itself) and run length.
        match prev_freq {
            None => put_vbyte(&mut buf, u64::from(freq)),
            Some(p) => put_vbyte(&mut buf, u64::from(p - freq)),
        }
        prev_freq = Some(freq);
        put_vbyte(&mut buf, (j - i) as u64);
        // Doc-id gaps within the run.
        let mut prev_doc = 0u32;
        for (k, p) in postings[i..j].iter().enumerate() {
            let gap = if k == 0 { p.doc.0 } else { p.doc.0 - prev_doc };
            put_vbyte(&mut buf, u64::from(gap));
            prev_doc = p.doc.0;
        }
        i = j;
    }
    buf.freeze()
}

/// Decodes postings produced by [`encode_postings`].
///
/// Returns `None` on any malformed input (truncated varint, overflowing
/// counts, non-decreasing frequencies). Each call records one page
/// decode and the compressed byte count on the global `ir-observe`
/// registry (`index.pages_decoded` / `index.bytes_decompressed`).
pub fn decode_postings(data: Bytes) -> Option<Vec<Posting>> {
    let mut out = Vec::new();
    decode_postings_into(data, &mut out).then_some(out)
}

/// Decodes postings produced by [`encode_postings`] into a caller-owned
/// vector, reusing its capacity — the scratch-buffer counterpart of
/// [`decode_postings`] for hot paths that decode one page per fetch and
/// would otherwise allocate a fresh `Vec<Posting>` each time.
///
/// Clears `out` first. Returns `false` on any malformed input (`out`
/// then holds at most a partial decode and must not be used); the
/// counters recorded match [`decode_postings`] exactly.
pub fn decode_postings_into(data: Bytes, out: &mut Vec<Posting>) -> bool {
    GoldenCodec.decode_into(data, out)
}

/// The golden decode without instrumentation — shared by
/// [`GoldenCodec`] and the Re-Pair expansion path.
fn decode_golden_raw(mut data: Bytes, out: &mut Vec<Posting>) -> bool {
    out.clear();
    let Some(n) = get_vbyte(&mut data).map(|v| v as usize) else {
        return false;
    };
    // Guard against hostile counts: each posting costs ≥ 1 byte.
    if n > data.remaining().saturating_mul(2) + 2 {
        return false;
    }
    out.reserve(n);
    decode_body(data, n, out).is_some()
}

/// The run-decoding loop shared by both decode entry points.
fn decode_body(mut data: Bytes, n: usize, out: &mut Vec<Posting>) -> Option<()> {
    let mut freq: Option<u32> = None;
    while out.len() < n {
        let header = get_vbyte(&mut data)?;
        let f = match freq {
            None => u32::try_from(header).ok()?,
            Some(p) => p.checked_sub(u32::try_from(header).ok()?)?,
        };
        if f == 0 {
            return None; // frequencies are >= 1
        }
        freq = Some(f);
        let run = get_vbyte(&mut data)? as usize;
        if run == 0 || out.len() + run > n {
            return None;
        }
        let mut doc = 0u32;
        for k in 0..run {
            let gap = u32::try_from(get_vbyte(&mut data)?).ok()?;
            doc = if k == 0 { gap } else { doc.checked_add(gap)? };
            out.push(Posting {
                doc: DocId(doc),
                freq: f,
            });
        }
    }
    Some(())
}

/// Encodes and measures without keeping the bytes (golden codec).
pub fn measure(postings: &[Posting]) -> CompressionStats {
    ListCodec::measure(&GoldenCodec, postings)
}

/// The codec identifier persisted in file headers (`BFPG` v2, `BFIR`
/// v2) and threaded through the builder, the page geometry and the
/// observe layer.
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
pub enum Codec {
    /// RLE + v-byte over frequency runs — the paper baseline. Its
    /// output is byte-identical to the pre-trait encoder.
    #[default]
    Golden,
    /// Re-Pair grammar compression over golden bytes: smaller lists,
    /// decode through phrase expansion.
    RePair,
}

impl Codec {
    /// Every codec, in persisted-id order.
    pub const ALL: [Codec; 2] = [Codec::Golden, Codec::RePair];

    /// The id byte persisted in file headers. Id 1 belonged to a
    /// retired codec and is rejected as unknown.
    pub fn id(self) -> u8 {
        match self {
            Codec::Golden => 0,
            Codec::RePair => 2,
        }
    }

    /// The codec for a persisted id byte.
    pub fn from_id(id: u8) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.id() == id)
    }

    /// A stable lowercase name for metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Golden => "golden",
            Codec::RePair => "re-pair",
        }
    }

    /// Position in [`Codec::ALL`], for per-codec arrays (ids are not
    /// dense).
    fn index(self) -> usize {
        match self {
            Codec::Golden => 0,
            Codec::RePair => 1,
        }
    }

    /// Constructs the codec instance for this id from its persisted
    /// dictionary (empty for the dictionary-free codecs).
    pub fn build(self, dictionary: &[u8]) -> Result<Arc<dyn ListCodec>, String> {
        match self {
            Codec::Golden => {
                if !dictionary.is_empty() {
                    return Err(format!(
                        "codec {} takes no dictionary, got {} bytes",
                        self.name(),
                        dictionary.len()
                    ));
                }
                Ok(Arc::new(GoldenCodec))
            }
            Codec::RePair => RePairGrammar::from_bytes(dictionary)
                .map(|g| Arc::new(RePairCodec::new(g)) as Arc<dyn ListCodec>),
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A posting-list codec: encodes frequency-sorted postings to bytes
/// and decodes them back, recording per-codec decode metrics.
///
/// Implementations provide [`encode`](ListCodec::encode) and the
/// uninstrumented [`decode_into_raw`](ListCodec::decode_into_raw);
/// callers use [`decode_into`](ListCodec::decode_into) /
/// [`decode`](ListCodec::decode), which wrap the raw decode with the
/// global decode counters and the per-codec nanosecond histogram.
pub trait ListCodec: Send + Sync + std::fmt::Debug {
    /// Which codec this is.
    fn id(&self) -> Codec;

    /// The shared dictionary to persist alongside encoded lists
    /// (empty for dictionary-free codecs).
    fn dictionary(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Encodes frequency-sorted postings.
    ///
    /// # Panics
    /// May panic if `postings` is not in frequency order (`f` desc,
    /// `d` asc); the builder guarantees the order.
    fn encode(&self, postings: &[Posting]) -> Bytes;

    /// Decodes into `out` without touching any metric. Clears `out`
    /// first; returns `false` on any malformed input (`out` then
    /// holds at most a partial decode). Must never panic on hostile
    /// bytes.
    fn decode_into_raw(&self, data: Bytes, out: &mut Vec<Posting>) -> bool;

    /// Decodes into a caller-owned scratch vector, recording the
    /// decode on the global registry: `index.pages_decoded`,
    /// `index.bytes_decompressed`, `index.decode_ns.<codec>` and
    /// `index.decoded_entries.<codec>`.
    fn decode_into(&self, data: Bytes, out: &mut Vec<Posting>) -> bool {
        let meters = decode_meters(self.id());
        let (pages, bytes) = decode_counters();
        pages.inc();
        bytes.add(data.len() as u64);
        let start = std::time::Instant::now();
        let ok = self.decode_into_raw(data, out);
        meters.decode_ns.record(start.elapsed().as_nanos() as u64);
        if ok {
            meters.entries.add(out.len() as u64);
        }
        ok
    }

    /// Allocating counterpart of [`decode_into`](ListCodec::decode_into).
    fn decode(&self, data: Bytes) -> Option<Vec<Posting>> {
        let mut out = Vec::new();
        self.decode_into(data, &mut out).then_some(out)
    }

    /// Encodes and measures without keeping the bytes.
    fn measure(&self, postings: &[Posting]) -> CompressionStats {
        CompressionStats {
            n_postings: postings.len() as u64,
            raw_bytes: postings.len() as u64 * 6,
            compressed_bytes: self.encode(postings).len() as u64,
        }
    }
}

/// The paper-baseline codec: RLE over frequency runs + v-byte gaps.
/// Byte-identical to the pre-trait `encode_postings`.
#[derive(Clone, Copy, Debug, Default)]
pub struct GoldenCodec;

impl ListCodec for GoldenCodec {
    fn id(&self) -> Codec {
        Codec::Golden
    }

    fn encode(&self, postings: &[Posting]) -> Bytes {
        encode_postings(postings)
    }

    fn decode_into_raw(&self, data: Bytes, out: &mut Vec<Posting>) -> bool {
        decode_golden_raw(data, out)
    }
}

// -------------------------------------------------------------- re-pair

/// Hard ceiling on grammar size: symbols stay below 512, so the
/// fixed-width symbol code is at most 9 bits and the pair table is a
/// flat 511×511 array.
pub const REPAIR_MAX_RULES: usize = 255;

/// Rules whose phrase expansion exceeds this are rejected at load —
/// trained grammars sit far below it; the cap bounds hostile
/// dictionaries.
const REPAIR_MAX_EXPANSION: usize = 4096;

/// Training stops once the concatenated sample reaches this many
/// golden bytes; enough to see every frequent gap pattern without
/// making the naive recount quadratic in the corpus.
const REPAIR_SAMPLE_CAP: usize = 256 * 1024;

/// Pairs rarer than this in the sample are not worth a rule.
const REPAIR_MIN_PAIR_FREQ: u32 = 8;

/// A list-boundary marker in the training sequence; never forms a
/// pair, so rules cannot span two lists.
const REPAIR_SENTINEL: u32 = u32::MAX;

/// A Re-Pair grammar: rule `i` defines symbol `256 + i` as the
/// concatenation of two earlier symbols. Terminals are the 256 byte
/// values. Serialized as `u32 n_rules` then `(u32 left, u32 right)`
/// per rule, all little-endian.
pub struct RePairGrammar {
    rules: Vec<(u32, u32)>,
    /// Terminal-byte expansion per rule, parallel to `rules`.
    expansions: Vec<Vec<u8>>,
    /// Flat `(a, b) → symbol` table (`0` = no rule; `0` is a terminal
    /// and never names a rule), stride = symbol count.
    pair_to_symbol: Vec<u16>,
    /// Fixed symbol code width in bits.
    width: u32,
}

impl RePairGrammar {
    /// The number of rules.
    pub fn n_rules(&self) -> usize {
        self.rules.len()
    }

    /// Fixed symbol code width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    fn n_symbols(&self) -> u32 {
        256 + self.rules.len() as u32
    }

    /// Builds the derived tables from a rule list, validating that
    /// every rule references only earlier symbols and expands to a
    /// bounded phrase.
    pub fn from_rules(rules: Vec<(u32, u32)>) -> Result<RePairGrammar, String> {
        if rules.len() > REPAIR_MAX_RULES {
            return Err(format!(
                "grammar has {} rules, max {REPAIR_MAX_RULES}",
                rules.len()
            ));
        }
        let mut expansions: Vec<Vec<u8>> = Vec::with_capacity(rules.len());
        for (i, &(a, b)) in rules.iter().enumerate() {
            let max = 256 + i as u32;
            if a >= max || b >= max {
                return Err(format!("rule {i} references symbol {} >= {max}", a.max(b)));
            }
            let mut e = Vec::new();
            for s in [a, b] {
                if s < 256 {
                    e.push(s as u8);
                } else {
                    e.extend_from_slice(&expansions[(s - 256) as usize]);
                }
            }
            if e.len() > REPAIR_MAX_EXPANSION {
                return Err(format!("rule {i} expands to {} bytes", e.len()));
            }
            expansions.push(e);
        }
        let n_symbols = 256 + rules.len();
        let mut pair_to_symbol = vec![0u16; n_symbols * n_symbols];
        for (i, &(a, b)) in rules.iter().enumerate() {
            pair_to_symbol[a as usize * n_symbols + b as usize] = (256 + i) as u16;
        }
        let width = 32 - (n_symbols as u32 - 1).leading_zeros();
        Ok(RePairGrammar {
            rules,
            expansions,
            pair_to_symbol,
            width,
        })
    }

    /// Trains a grammar on golden-encoded sample lists: repeatedly
    /// replace the most frequent adjacent symbol pair (ties broken
    /// toward the smallest pair) until no pair repeats
    /// [`REPAIR_MIN_PAIR_FREQ`] times or the rule budget is spent.
    /// Deterministic: same samples, same grammar.
    pub fn train<'a>(samples: impl IntoIterator<Item = &'a [u8]>) -> RePairGrammar {
        let mut seq: Vec<u32> = Vec::with_capacity(REPAIR_SAMPLE_CAP);
        for s in samples {
            if seq.len() >= REPAIR_SAMPLE_CAP {
                break;
            }
            if !seq.is_empty() {
                seq.push(REPAIR_SENTINEL);
            }
            let room = REPAIR_SAMPLE_CAP - seq.len();
            seq.extend(s.iter().take(room).map(|&b| u32::from(b)));
        }
        let stride = 256 + REPAIR_MAX_RULES;
        let mut counts = vec![0u32; stride * stride];
        let mut rules: Vec<(u32, u32)> = Vec::new();
        while rules.len() < REPAIR_MAX_RULES {
            counts.fill(0);
            for w in seq.windows(2) {
                if w[0] != REPAIR_SENTINEL && w[1] != REPAIR_SENTINEL {
                    counts[w[0] as usize * stride + w[1] as usize] += 1;
                }
            }
            // First maximum in index order = smallest (a, b) on ties.
            let (mut best, mut best_count) = (0usize, 0u32);
            for (idx, &c) in counts.iter().enumerate() {
                if c > best_count {
                    best = idx;
                    best_count = c;
                }
            }
            if best_count < REPAIR_MIN_PAIR_FREQ {
                break;
            }
            let (a, b) = ((best / stride) as u32, (best % stride) as u32);
            let sym = 256 + rules.len() as u32;
            rules.push((a, b));
            // Left-to-right non-overlapping replacement.
            let mut out = Vec::with_capacity(seq.len());
            let mut i = 0usize;
            while i < seq.len() {
                if i + 1 < seq.len() && seq[i] == a && seq[i + 1] == b {
                    out.push(sym);
                    i += 2;
                } else {
                    out.push(seq[i]);
                    i += 1;
                }
            }
            seq = out;
        }
        RePairGrammar::from_rules(rules).expect("trained rules reference earlier symbols only")
    }

    /// Serializes the grammar for the page-file dictionary block.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.rules.len() * 8);
        out.extend_from_slice(&(self.rules.len() as u32).to_le_bytes());
        for &(a, b) in &self.rules {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    /// Parses a serialized grammar, rejecting truncation, trailing
    /// bytes and malformed rules.
    pub fn from_bytes(data: &[u8]) -> Result<RePairGrammar, String> {
        if data.len() < 4 {
            return Err(format!("grammar header truncated at {} bytes", data.len()));
        }
        let n = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes")) as usize;
        if n > REPAIR_MAX_RULES {
            return Err(format!("grammar claims {n} rules, max {REPAIR_MAX_RULES}"));
        }
        if data.len() != 4 + n * 8 {
            return Err(format!(
                "grammar with {n} rules must be {} bytes, got {}",
                4 + n * 8,
                data.len()
            ));
        }
        let rules = (0..n)
            .map(|i| {
                let at = 4 + i * 8;
                (
                    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes")),
                    u32::from_le_bytes(data[at + 4..at + 8].try_into().expect("4 bytes")),
                )
            })
            .collect();
        RePairGrammar::from_rules(rules)
    }

    /// Greedy bottom-up parse of a golden byte stream into grammar
    /// symbols: push each byte, then fold the top pair while a rule
    /// matches. Any parse decodes back to the same bytes.
    fn parse(&self, bytes: &[u8]) -> Vec<u32> {
        let stride = self.n_symbols() as usize;
        let mut stack: Vec<u32> = Vec::with_capacity(bytes.len());
        for &byte in bytes {
            let mut sym = u32::from(byte);
            while let Some(&top) = stack.last() {
                let rule = self.pair_to_symbol[top as usize * stride + sym as usize];
                if rule == 0 {
                    break;
                }
                stack.pop();
                sym = u32::from(rule);
            }
            stack.push(sym);
        }
        stack
    }

    /// Appends the terminal expansion of `sym` to `out`.
    fn expand_into(&self, sym: u32, out: &mut Vec<u8>) {
        if sym < 256 {
            out.push(sym as u8);
        } else {
            out.extend_from_slice(&self.expansions[(sym - 256) as usize]);
        }
    }
}

impl std::fmt::Debug for RePairGrammar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RePairGrammar")
            .field("n_rules", &self.rules.len())
            .field("width", &self.width)
            .finish()
    }
}

/// Re-Pair codec over the golden byte stream. Each list carries a
/// one-vbyte header `(payload_len << 1) | flag`:
///
/// * `flag = 1`: `payload_len` grammar symbols, bit-packed LSB-first
///   at the grammar's fixed width; expansion yields the full golden
///   encoding of the list.
/// * `flag = 0`: the list stored as golden bytes minus their leading
///   count vbyte — `payload_len` is the posting count, the remaining
///   bytes are the golden run stream. Chosen whenever the symbol
///   stream would not be strictly smaller, so short lists cost at
///   most one extra vbyte length step over pure golden.
#[derive(Debug)]
pub struct RePairCodec {
    grammar: RePairGrammar,
}

impl RePairCodec {
    /// Wraps a trained or deserialized grammar.
    pub fn new(grammar: RePairGrammar) -> RePairCodec {
        RePairCodec { grammar }
    }

    /// Trains a grammar on the golden encodings of `lists` and wraps
    /// it.
    pub fn train<'a>(lists: impl IntoIterator<Item = &'a [Posting]>) -> RePairCodec {
        let golden: Vec<Bytes> = lists.into_iter().map(encode_postings).collect();
        RePairCodec::new(RePairGrammar::train(golden.iter().map(|b| b.as_ref())))
    }

    /// The wrapped grammar.
    pub fn grammar(&self) -> &RePairGrammar {
        &self.grammar
    }
}

impl ListCodec for RePairCodec {
    fn id(&self) -> Codec {
        Codec::RePair
    }

    fn dictionary(&self) -> Vec<u8> {
        self.grammar.to_bytes()
    }

    fn encode(&self, postings: &[Posting]) -> Bytes {
        let golden = encode_postings(postings);
        let width = u64::from(self.grammar.width);
        let symbols = if self.grammar.n_rules() > 0 {
            self.grammar.parse(&golden)
        } else {
            Vec::new()
        };
        let packed_bytes = (symbols.len() as u64 * width).div_ceil(8) as usize;
        let mut header = BytesMut::new();
        if !symbols.is_empty() {
            put_vbyte(&mut header, ((symbols.len() as u64) << 1) | 1);
            // Stored cost: golden minus its count vbyte, plus the
            // shifted-count header.
            let mut stored_header = BytesMut::new();
            put_vbyte(&mut stored_header, (postings.len() as u64) << 1);
            let mut count_prefix = golden.clone();
            let _ = get_vbyte(&mut count_prefix);
            let stored_len = stored_header.len() + count_prefix.remaining();
            if header.len() + packed_bytes < stored_len {
                let mut buf = header;
                buf.reserve(packed_bytes);
                let mut acc = 0u64;
                let mut nbits = 0u64;
                for &s in &symbols {
                    acc |= u64::from(s) << nbits;
                    nbits += width;
                    while nbits >= 8 {
                        buf.put_u8(acc as u8);
                        acc >>= 8;
                        nbits -= 8;
                    }
                }
                if nbits > 0 {
                    buf.put_u8(acc as u8);
                }
                return buf.freeze();
            }
        }
        // Stored fallback: re-head the golden bytes with the flagged
        // count.
        let mut buf = BytesMut::with_capacity(golden.len() + 1);
        put_vbyte(&mut buf, (postings.len() as u64) << 1);
        let mut body = golden;
        let _ = get_vbyte(&mut body);
        buf.put_slice(&body);
        buf.freeze()
    }

    fn decode_into_raw(&self, mut data: Bytes, out: &mut Vec<Posting>) -> bool {
        out.clear();
        let Some(header) = get_vbyte(&mut data) else {
            return false;
        };
        let n = (header >> 1) as usize;
        if header & 1 == 0 {
            // Stored golden body with n postings.
            if n > data.remaining().saturating_mul(2) + 2 {
                return false;
            }
            out.reserve(n);
            return decode_body(data, n, out).is_some();
        }
        let width = self.grammar.width;
        let total = self.grammar.n_symbols();
        if (n as u64) * u64::from(width) > data.remaining() as u64 * 8 {
            return false; // truncated symbol stream
        }
        let buf: &[u8] = &data;
        let mut golden = Vec::with_capacity(n * 2);
        let mut acc = 0u64;
        let mut nbits = 0u32;
        let mut pos = 0usize;
        for _ in 0..n {
            while nbits < width {
                if pos >= buf.len() {
                    return false;
                }
                acc |= u64::from(buf[pos]) << nbits;
                nbits += 8;
                pos += 1;
            }
            let sym = (acc & ((1u64 << width) - 1)) as u32;
            acc >>= width;
            nbits -= width;
            if sym >= total || sym == REPAIR_SENTINEL {
                return false;
            }
            self.grammar.expand_into(sym, &mut golden);
            if golden.len() > (1 << 26) {
                return false; // expansion bomb
            }
        }
        decode_golden_raw(Bytes::from(golden), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::frequency_order;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn postings(entries: &[(u32, u32)]) -> Vec<Posting> {
        entries.iter().map(|&(d, f)| Posting::new(d, f)).collect()
    }

    /// Deterministic frequency-sorted random lists shared by the
    /// cross-codec tests.
    fn random_lists(seed: u64, count: usize) -> Vec<Vec<Posting>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let n = rng.gen_range(0..200);
                let mut p: Vec<Posting> = (0..n)
                    .map(|_| Posting::new(rng.gen_range(0..10_000), rng.gen_range(1..50)))
                    .collect();
                p.sort_by(frequency_order);
                p.dedup_by_key(|x| x.doc); // doc ids unique within a list
                p.sort_by(frequency_order);
                p
            })
            .collect()
    }

    fn all_codecs() -> Vec<Arc<dyn ListCodec>> {
        let lists = random_lists(11, 40);
        vec![
            Arc::new(GoldenCodec),
            Arc::new(RePairCodec::train(lists.iter().map(|l| l.as_slice()))),
        ]
    }

    #[test]
    fn round_trip_simple() {
        let p = postings(&[(3, 9), (1, 5), (7, 5), (0, 1), (2, 1), (9, 1)]);
        let enc = encode_postings(&p);
        assert_eq!(decode_postings(enc).unwrap(), p);
    }

    #[test]
    fn empty_list() {
        let enc = encode_postings(&[]);
        assert_eq!(decode_postings(enc).unwrap(), vec![]);
    }

    #[test]
    fn skewed_lists_approach_one_byte_per_entry() {
        // 10,000 postings, all frequency 1, dense doc ids: the paper's
        // dominant case. Gaps of 1 cost one byte each.
        let p: Vec<Posting> = (0..10_000).map(|d| Posting::new(d, 1)).collect();
        let stats = measure(&p);
        assert!(
            stats.bytes_per_entry() < 1.1,
            "got {} bytes/entry",
            stats.bytes_per_entry()
        );
        assert_eq!(stats.raw_bytes, 60_000);
    }

    #[test]
    fn truncated_input_rejected() {
        let p = postings(&[(3, 9), (1, 5)]);
        let enc = encode_postings(&p);
        for cut in 1..enc.len() {
            assert!(
                decode_postings(enc.slice(0..cut)).is_none(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn garbage_input_rejected_or_decodes_to_something() {
        // Any byte soup must not panic, under any codec.
        let cases: [&[u8]; 4] = [&[0xff], &[0x81, 0x00], &[0x85, 0x85], &[0x82, 0x80, 0x80]];
        for codec in all_codecs() {
            for c in cases {
                let _ = codec.decode(Bytes::copy_from_slice(c));
            }
        }
    }

    #[test]
    #[should_panic(expected = "frequency-sorted")]
    fn unsorted_input_panics() {
        let _ = encode_postings(&postings(&[(0, 1), (1, 5)]));
    }

    #[test]
    fn stats_accumulate() {
        let mut total = CompressionStats::default();
        total.add(measure(&postings(&[(0, 2), (1, 1)])));
        total.add(measure(&postings(&[(5, 3)])));
        assert_eq!(total.n_postings, 3);
        assert_eq!(total.raw_bytes, 18);
        assert!(total.compressed_bytes > 0);
    }

    #[test]
    fn round_trip_random_lists() {
        for p in random_lists(7, 50) {
            let enc = encode_postings(&p);
            assert_eq!(decode_postings(enc).unwrap(), p);
        }
    }

    #[test]
    fn every_codec_round_trips_and_scratch_matches_allocating() {
        let lists = random_lists(13, 60);
        for codec in all_codecs() {
            let mut scratch = Vec::new();
            for p in &lists {
                let enc = codec.encode(p);
                let decoded = codec.decode(enc.clone()).unwrap_or_else(|| {
                    panic!("{}: decode failed for {} postings", codec.id(), p.len())
                });
                assert_eq!(&decoded, p, "{}", codec.id());
                assert!(codec.decode_into(enc, &mut scratch), "{}", codec.id());
                assert_eq!(&scratch, p, "{}: scratch != allocating", codec.id());
            }
        }
    }

    #[test]
    fn every_codec_rejects_every_truncation() {
        let cases = [
            postings(&[(3, 9), (1, 5), (7, 5), (0, 1), (2, 1), (9, 1)]),
            (0..500).map(|d| Posting::new(d * 3, 1)).collect(),
        ];
        for codec in all_codecs() {
            for p in &cases {
                let enc = codec.encode(p);
                for cut in 0..enc.len() {
                    assert!(
                        codec.decode(enc.slice(0..cut)).is_none(),
                        "{}: truncation at {cut}/{} must fail",
                        codec.id(),
                        enc.len()
                    );
                }
            }
        }
    }

    #[test]
    fn repair_beats_golden_on_repetitive_lists() {
        // Dense f=1 lists golden-encode to long runs of identical gap
        // bytes — exactly what pair replacement collapses.
        let lists: Vec<Vec<Posting>> = (0..8)
            .map(|s| (0..4_000).map(|d| Posting::new(d * 2 + s, 1)).collect())
            .collect();
        let codec = RePairCodec::train(lists.iter().map(|l| l.as_slice()));
        assert!(codec.grammar().n_rules() > 0, "training found no pairs");
        let mut repair = 0u64;
        let mut golden = 0u64;
        for p in &lists {
            repair += codec.encode(p).len() as u64;
            golden += encode_postings(p).len() as u64;
            assert_eq!(codec.decode(codec.encode(p)).unwrap(), *p);
        }
        repair += codec.dictionary().len() as u64;
        assert!(
            repair < golden,
            "re-pair {repair} bytes must beat golden {golden}"
        );
    }

    #[test]
    fn repair_with_empty_grammar_still_round_trips() {
        let codec = RePairCodec::new(RePairGrammar::from_rules(Vec::new()).unwrap());
        for p in random_lists(17, 20) {
            let enc = codec.encode(&p);
            assert_eq!(codec.decode(enc.clone()).unwrap(), p);
            // Stored fallback costs at most one extra byte over golden.
            assert!(enc.len() <= encode_postings(&p).len() + 1);
        }
    }

    #[test]
    fn grammar_serialization_round_trips() {
        let lists = random_lists(19, 30);
        let codec = RePairCodec::train(lists.iter().map(|l| l.as_slice()));
        let bytes = codec.grammar().to_bytes();
        let back = RePairGrammar::from_bytes(&bytes).unwrap();
        assert_eq!(back.n_rules(), codec.grammar().n_rules());
        let reopened = RePairCodec::new(back);
        for p in &lists {
            assert_eq!(reopened.encode(p), codec.encode(p));
            assert_eq!(reopened.decode(codec.encode(p)).unwrap(), *p);
        }
    }

    #[test]
    fn grammar_rejects_malformed_dictionaries() {
        assert!(RePairGrammar::from_bytes(&[1, 2, 3]).is_err(), "truncated");
        let mut forward = Vec::new();
        forward.extend_from_slice(&1u32.to_le_bytes());
        forward.extend_from_slice(&300u32.to_le_bytes()); // references itself
        forward.extend_from_slice(&0u32.to_le_bytes());
        assert!(RePairGrammar::from_bytes(&forward).is_err(), "forward ref");
        let mut trailing = RePairGrammar::from_rules(Vec::new()).unwrap().to_bytes();
        trailing.push(0);
        assert!(RePairGrammar::from_bytes(&trailing).is_err(), "trailing");
    }

    #[test]
    fn codec_ids_round_trip_and_build() {
        for codec in Codec::ALL {
            assert_eq!(Codec::from_id(codec.id()), Some(codec));
            let built = codec
                .build(&match codec {
                    Codec::RePair => RePairGrammar::from_rules(Vec::new()).unwrap().to_bytes(),
                    _ => Vec::new(),
                })
                .unwrap();
            assert_eq!(built.id(), codec);
        }
        assert_eq!(Codec::from_id(1), None, "retired id stays unknown");
        assert_eq!(Codec::from_id(9), None);
        assert!(Codec::Golden.build(&[1]).is_err(), "golden takes no dict");
        assert!(Codec::RePair.build(&[0xff]).is_err(), "garbage dict");
    }

    #[test]
    fn codec_stats_track_per_codec() {
        let mut stats = CodecStats::default();
        let p = postings(&[(0, 2), (1, 1)]);
        stats.add(Codec::Golden, measure(&p));
        assert_eq!(stats.get(Codec::Golden).n_postings, 2);
        assert_eq!(stats.get(Codec::RePair).n_postings, 0);
        // Re-Pair's id is 2 but its slot is 1: slots follow `ALL`.
        stats.add(Codec::RePair, measure(&postings(&[(5, 3)])));
        assert_eq!(stats.get(Codec::RePair).n_postings, 1);
        assert_eq!(stats.get(Codec::Golden).n_postings, 2);
        assert_eq!(stats.iter().count(), 2);
    }

    #[test]
    fn trait_golden_matches_free_functions() {
        let p = postings(&[(3, 9), (1, 5), (7, 5), (0, 1), (2, 1), (9, 1)]);
        let codec = GoldenCodec;
        assert_eq!(codec.encode(&p), encode_postings(&p));
        assert_eq!(codec.decode(encode_postings(&p)).unwrap(), p);
        assert_eq!(ListCodec::measure(&codec, &p), measure(&p));
        assert!(codec.dictionary().is_empty());
    }
}
