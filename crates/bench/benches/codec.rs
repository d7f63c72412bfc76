//! Posting-compression codec throughput: the CPU-cost component the
//! paper attributes to "decompression of index data" (§2.4). One page
//! is the paper's 404 entries; every codec is timed over the same
//! synthetic lists (Re-Pair trained on them first, as the builder
//! would).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ir_index::{GoldenCodec, ListCodec, RePairCodec};
use ir_types::{frequency_order, Posting};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn page_postings(n: usize, seed: u64) -> Vec<Posting> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut v: Vec<Posting> = (0..n)
        .map(|_| {
            // Frequency skew matching the corpus: ~96 % f=1.
            let f = if rng.gen::<f64>() < 0.96 {
                1
            } else {
                rng.gen_range(2..12)
            };
            Posting::new(rng.gen_range(0..200_000), f)
        })
        .collect();
    v.sort_by(frequency_order);
    v
}

fn bench_codec(c: &mut Criterion) {
    let postings = page_postings(404, 7);
    // Train the grammar on a spread of lists (the timed one included),
    // mirroring the builder's whole-collection training pass.
    let training: Vec<Vec<Posting>> = (0..32).map(|seed| page_postings(404, seed)).collect();
    let repair = RePairCodec::train(training.iter().map(|l| l.as_slice()));
    let codecs: [&dyn ListCodec; 2] = [&GoldenCodec, &repair];

    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Elements(postings.len() as u64));
    for imp in codecs {
        let name = imp.id().name();
        let encoded = imp.encode(&postings);
        g.bench_function(format!("encode_404_entry_page/{name}"), |b| {
            b.iter(|| imp.encode(black_box(&postings)))
        });
        g.bench_function(format!("decode_404_entry_page/{name}"), |b| {
            b.iter(|| imp.decode(black_box(encoded.clone())).unwrap())
        });
        // The scratch-buffer variant: same codec work, zero allocator
        // traffic after the first iteration — the delta against the
        // plain decode is the per-page `Vec<Posting>` cost the eval
        // loop avoids.
        g.bench_function(format!("decode_404_entry_page_into_scratch/{name}"), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                assert!(imp.decode_into(black_box(encoded.clone()), &mut scratch));
                black_box(scratch.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
