//! Property suite for the pluggable list codecs: for every codec and
//! any frequency-sorted posting list,
//!
//! * `decode(encode(list)) == list` (lossless round trip),
//! * the scratch-buffer decode agrees with the allocating decode,
//! * every strict prefix of an encoding is rejected (torn/truncated
//!   payloads **error**, they never panic), and
//! * arbitrary hostile bytes never panic the decoder.

use bytes::Bytes;
use ir_storage::{GoldenCodec, ListCodec, RePairCodec};
use ir_types::{frequency_order, Posting};
use proptest::{collection, proptest, ProptestConfig};

/// Doc-id gaps and frequencies drawn small enough to force runs (equal
/// frequencies) and multi-byte varints, then sorted into the frequency
/// order every codec requires.
fn list_from(pairs: &[(u32, u32)]) -> Vec<Posting> {
    let mut doc = 0u32;
    let mut v: Vec<Posting> = pairs
        .iter()
        .map(|&(gap, freq)| {
            doc += gap;
            Posting::new(doc, freq)
        })
        .collect();
    v.sort_by(frequency_order);
    v
}

/// Every codec under test; Re-Pair is trained on the list itself, as
/// the builder trains on the collection it encodes.
fn codecs(list: &[Posting]) -> Vec<Box<dyn ListCodec>> {
    vec![Box::new(GoldenCodec), Box::new(RePairCodec::train([list]))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_codec_round_trips_and_rejects_truncation(
        pairs in collection::vec((1u32..5_000, 1u32..40), 1..300),
    ) {
        let list = list_from(&pairs);
        for codec in codecs(&list) {
            let name = codec.id().name();
            let encoded = codec.encode(&list);

            // Lossless round trip, allocating path.
            let decoded = codec
                .decode(encoded.clone())
                .unwrap_or_else(|| panic!("{name}: decode of own encoding failed"));
            assert_eq!(decoded, list, "{name}: round trip");

            // The scratch path must agree exactly (and again when the
            // scratch is reused dirty).
            let mut scratch = vec![Posting::new(u32::MAX, u32::MAX); 7];
            assert!(codec.decode_into(encoded.clone(), &mut scratch), "{name}");
            assert_eq!(scratch, list, "{name}: scratch decode");
            assert!(codec.decode_into(encoded.clone(), &mut scratch), "{name}");
            assert_eq!(scratch, list, "{name}: reused scratch decode");

            // A torn write: every strict prefix must be rejected.
            for cut in 0..encoded.len() {
                let torn = encoded.slice(0..cut);
                assert!(
                    !codec.decode_into_raw(torn, &mut scratch),
                    "{name}: accepted a {cut}-byte prefix of {} bytes",
                    encoded.len()
                );
            }
        }
    }

    #[test]
    fn hostile_bytes_never_panic(raw in collection::vec(0u8..=255, 0..400)) {
        // Garbage may happen to decode (any valid stream is reachable),
        // but it must never panic and a partial failure must report
        // `false`/`None` instead.
        let bytes = Bytes::copy_from_slice(&raw);
        let empty: Vec<Posting> = Vec::new();
        for codec in codecs(&empty) {
            let mut scratch = Vec::new();
            let ok = codec.decode_into_raw(bytes.clone(), &mut scratch);
            let allocating = codec.decode_into_raw(bytes.clone(), &mut Vec::new());
            assert_eq!(ok, allocating, "{}: decode must be deterministic", codec.id());
        }
    }
}
