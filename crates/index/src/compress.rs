//! Posting compression for frequency-sorted inverted lists.
//!
//! The implementation lives in [`ir_storage::codec`] — the page-file
//! backend must decode codec payloads, and `ir-index` already depends
//! on `ir-storage`, so the codec layer sits below both. This module
//! re-exports the whole surface under its historical home so existing
//! call sites (`ir_index::compress::encode_postings`, …) and the
//! crate-root re-exports keep working unchanged.
//!
//! See [`ir_storage::codec`] for the format documentation: the golden
//! RLE+v-byte scheme the paper's ≈1 byte/entry premise rests on and
//! the Re-Pair grammar codec.

pub use ir_storage::codec::{
    decode_postings, decode_postings_into, encode_postings, measure, Codec, CodecStats,
    CompressionStats, GoldenCodec, ListCodec, RePairCodec, RePairGrammar,
};

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::Posting;

    /// The shim must expose the same behaviour as the storage-layer
    /// implementation — one smoke round trip per codec through the
    /// `ir_index::compress` path.
    #[test]
    fn shim_round_trips_every_codec() {
        let p: Vec<Posting> = (0..300).map(|d| Posting::new(d * 2, 1)).collect();
        assert_eq!(decode_postings(encode_postings(&p)).unwrap(), p);
        for codec in Codec::ALL {
            let built = match codec {
                Codec::RePair => {
                    let trained = RePairCodec::train([p.as_slice()]);
                    codec.build(&trained.dictionary()).unwrap()
                }
                _ => codec.build(&[]).unwrap(),
            };
            assert_eq!(built.decode(built.encode(&p)).unwrap(), p, "{codec}");
        }
    }

    #[test]
    fn shim_exposes_stats_types() {
        let mut stats = CodecStats::default();
        stats.add(Codec::Golden, measure(&[Posting::new(4, 2)]));
        assert_eq!(stats.get(Codec::Golden).n_postings, 1);
        assert!(CompressionStats::default().bytes_per_entry() == 0.0);
    }
}
