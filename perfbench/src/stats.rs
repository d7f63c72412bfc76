//! The benchmark's own statistics: medians, percentiles, quartiles and
//! span self time.

use std::ops::Range;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile (in whole percent, at most `max_pct`) that
/// leaves at least `min_beyond` samples strictly above its rank, with
/// its value by the nearest-rank rule. `None` when even the median
/// cannot keep `min_beyond` samples beyond it.
///
/// With nearest rank, percentile `p` of `n` sorted samples is the
/// sample at 1-based rank `ceil(p/100 · n)`, and `n − rank` samples lie
/// beyond it.
pub fn percentile_with_tail(values: &[f64], max_pct: u32, min_beyond: usize) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (50..=max_pct).rev().find_map(|p| {
        let rank = nearest_rank(p, n)?;
        (n - rank >= min_beyond).then(|| (p, v[rank - 1]))
    })
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: u32, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // Integer ceil(p·n/100) — no float rounding at exact ranks.
    let rank = (p as usize * n).div_ceil(100);
    Some(rank.clamp(1, n))
}

/// Quartiles `(q1, q2, q3)` by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`: the `i`-th cut point
/// sits at position `i·(n+1)/4` of the sorted data, interpolated
/// linearly (extrapolated at the ends of very short data, as Python
/// does). `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// One timed slice of a run: latency samples, wall time and the CPU
/// time the host withheld from the machine meanwhile, both in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slice {
    pub samples: usize,
    pub wall_s: f64,
    pub steal_s: f64,
}

/// Groups consecutive slices into windows of at least `min` samples
/// each; a short remainder joins the last window. Returns each window's
/// sample range and its summed wall and stolen time. Empty when all
/// slices together hold fewer than `min` samples.
pub fn windows(slices: &[Slice], min: usize) -> Vec<(Range<usize>, Slice)> {
    let mut out: Vec<(Range<usize>, Slice)> = Vec::new();
    let (mut start, mut end) = (0, 0);
    let mut acc = Slice {
        samples: 0,
        wall_s: 0.0,
        steal_s: 0.0,
    };
    for s in slices {
        end += s.samples;
        acc.samples += s.samples;
        acc.wall_s += s.wall_s;
        acc.steal_s += s.steal_s;
        if end - start >= min {
            out.push((start..end, acc));
            start = end;
            acc = Slice {
                samples: 0,
                wall_s: 0.0,
                steal_s: 0.0,
            };
        }
    }
    if let Some(last) = out.last_mut().filter(|_| end > start) {
        last.0.end = end;
        last.1.samples += acc.samples;
        last.1.wall_s += acc.wall_s;
        last.1.steal_s += acc.steal_s;
    }
    out
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// that interval its children cover. Children may overlap each other or
/// stick out of the parent; each instant is subtracted at most once.
/// Sorts `children` in place, so a caller can reuse one scratch buffer
/// without allocating.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let from = s.max(reach);
        let to = e.min(end);
        if to > from {
            covered += to - from;
            reach = to;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        // 1..=1000: p99 is rank 990, leaving exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 99, 10), Some((99, 990.0)));
        // 500 samples cannot keep 10 beyond p99 (rank 495 leaves 5):
        // the highest percentile that does is p98 (rank 490).
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 99, 10), Some((98, 490.0)));
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile_with_tail(&r, 99, 10), Some((98, 490.0)));
        // Too few samples for any percentile at or above the median.
        assert_eq!(percentile_with_tail(&[1.0, 2.0, 3.0], 99, 10), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([2, 1], n=4) == [0.75, 1.5, 2.25]: the
        // outer cut points extrapolate past the data.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn windows_hold_at_least_min_samples() {
        let slice = |samples, wall_s| Slice {
            samples,
            wall_s,
            steal_s: wall_s / 10.0,
        };
        let slices = [
            slice(400, 1.0),
            slice(700, 2.0),
            slice(1200, 3.0),
            slice(300, 0.5),
        ];
        // 400+700 reach 1000; 1200 alone does; the last 300 join it.
        let got = windows(&slices, 1000);
        assert_eq!(got.len(), 2);
        assert_eq!(
            (got[0].0.clone(), got[0].1.samples, got[0].1.wall_s),
            (0..1100, 1100, 3.0)
        );
        assert_eq!(
            (got[1].0.clone(), got[1].1.samples, got[1].1.wall_s),
            (1100..2600, 1500, 3.5)
        );
        assert!((got[1].1.steal_s - 0.35).abs() < 1e-12);
        assert!(windows(&slices, 5000).is_empty());
        assert_eq!(windows(&[slice(1000, 1.0)], 1000)[0].0, 0..1000);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        assert_eq!(self_time(0, 100, &mut []), 100);
        assert_eq!(self_time(0, 100, &mut [(10, 20), (30, 60)]), 60);
        // Overlapping children count their union.
        assert_eq!(self_time(0, 100, &mut [(10, 50), (40, 70)]), 40);
        // A child nested in another child adds nothing.
        assert_eq!(self_time(0, 100, &mut [(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(10, 20, &mut [(0, 15), (18, 40)]), 3);
        // A child outside the parent covers nothing.
        assert_eq!(self_time(10, 20, &mut [(30, 40)]), 10);
    }
}
