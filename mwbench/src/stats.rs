//! Percentiles and the warm-up cut shared by every timed section.

/// Share of every timed section's first operations that is warm-up and
/// discarded before any percentile or rate is taken.
pub const WARMUP_SHARE: f64 = 0.10;

/// Index of the first operation that counts, out of `n`.
pub fn warmup_cut(n: usize) -> usize {
    (n as f64 * WARMUP_SHARE).ceil() as usize
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice: the
/// smallest sample with at least `p` % of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Windows a timed section is cut into. The end-to-end percentiles and
/// rates are the median of the windows' own: a long host stall, which
/// would otherwise decide the tail of a whole run, then spoils one window
/// in ten.
pub const WINDOWS: usize = 10;
/// Fewer windows are cut rather than leave one with fewer samples.
const MIN_PER_WINDOW: usize = 50;

/// Cuts time-ordered samples into up to [`WINDOWS`] consecutive windows
/// of equal count.
pub fn windows<T>(ordered: &[T]) -> std::slice::Chunks<'_, T> {
    let k = WINDOWS.min(ordered.len() / MIN_PER_WINDOW).max(1);
    ordered.chunks(ordered.len().div_ceil(k).max(1))
}

/// Median over the windows of each window's nearest-rank percentile.
pub fn windowed_percentile(ordered: &[u64], p: f64) -> f64 {
    let per_window: Vec<f64> = windows(ordered)
        .map(|w| Samples::new(w.to_vec()).p(p) as f64)
        .collect();
    median_f64(&per_window)
}

/// Median over the windows of each window's units per second, from
/// time-ordered `(units, ns)` pairs.
pub fn windowed_rate(ordered: &[(u32, u64)]) -> f64 {
    let per_window: Vec<f64> = windows(ordered)
        .map(|w| {
            let units: u64 = w.iter().map(|c| u64::from(c.0)).sum();
            let ns: u64 = w.iter().map(|c| c.1).sum();
            units as f64 / (ns.max(1) as f64 / 1e9)
        })
        .collect();
    median_f64(&per_window)
}

/// A sample set with its percentiles, kept sorted.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    pub fn new(mut values: Vec<u64>) -> Samples {
        values.sort_unstable();
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn p(&self, p: f64) -> u64 {
        percentile_sorted(&self.sorted, p)
    }

    pub fn p50(&self) -> f64 {
        self.p(50.0) as f64
    }

    pub fn p99(&self) -> f64 {
        self.p(99.0) as f64
    }

    pub fn sum(&self) -> u64 {
        self.sorted.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum() as f64 / self.sorted.len() as f64
        }
    }
}

/// Median of a few floats (set-up repetitions).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        // Five samples: p50 is the 3rd, p99 the 5th (ceil(4.95) = 5).
        let five = [10, 20, 30, 40, 50];
        assert_eq!(percentile_sorted(&five, 50.0), 30);
        assert_eq!(percentile_sorted(&five, 99.0), 50);
        assert_eq!(percentile_sorted(&five, 20.0), 10);
        assert_eq!(percentile_sorted(&five, 21.0), 20);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn windowed_statistics_shrug_off_one_spoilt_window() {
        // 1 000 samples of 100, with a stall over 30 consecutive ones: the
        // whole-run p99 is the stall, the windowed p99 is not.
        let mut ordered = vec![100u64; 1_000];
        for v in &mut ordered[400..430] {
            *v = 5_000;
        }
        assert_eq!(windows(&ordered).count(), WINDOWS);
        assert_eq!(windowed_percentile(&ordered, 99.0), 100.0);
        let mut sorted = ordered.clone();
        sorted.sort_unstable();
        assert_eq!(percentile_sorted(&sorted, 99.0), 5_000);
        // Too few samples for ten windows: fewer are cut, down to one.
        assert_eq!(windows(&ordered[..120]).count(), 2);
        assert_eq!(windows(&ordered[..7]).count(), 1);
        assert_eq!(windowed_percentile(&[], 50.0), 0.0);
        // 2 units per 1 000 ns in every window: 2e6 units/s.
        let calls = vec![(2u32, 1_000u64); 500];
        assert_eq!(windowed_rate(&calls), 2e6);
    }

    #[test]
    fn samples_sort_and_summarise() {
        let s = Samples::new(vec![5, 1, 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.p(50.0), 3);
        assert_eq!(s.sum(), 9);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_and_median() {
        assert_eq!(warmup_cut(1000), 100);
        assert_eq!(warmup_cut(5), 1);
        assert_eq!(warmup_cut(0), 0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0]), 2.5);
    }
}
