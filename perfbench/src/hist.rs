//! Log-linear latency histogram with interpolated quantiles.
//!
//! Every timed op lands in one bucket: exact below 256 ns, then 256
//! sub-buckets per power of two (under 0.4% relative width). Memory stays
//! constant however long a run measures, and quantiles interpolate by rank
//! inside their bucket, so two runs with slightly different distributions
//! never read back the identical bucket edge.

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range; values past 2^(SUB_BITS + OCTAVES) ns
/// (about 18 minutes) clamp into the last bucket.
const OCTAVES: u32 = 32;
const BUCKETS: usize = ((OCTAVES as u64 + 1) * SUB) as usize;

/// A histogram of nanosecond (or any unit) samples.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() - SUB_BITS; // >= 0
    if octave >= OCTAVES {
        return BUCKETS - 1;
    }
    let mantissa = (value >> octave) - SUB; // in 0..SUB
    ((octave as u64 + 1) * SUB + mantissa) as usize
}

/// The half-open value range `[low, low + width)` of a bucket.
fn bucket_range(index: usize) -> (f64, f64) {
    let index = index as u64;
    if index < SUB {
        return (index as f64, 1.0);
    }
    let octave = index / SUB - 1;
    let mantissa = index % SUB;
    (((SUB + mantissa) << octave) as f64, (1u64 << octave) as f64)
}

impl Hist {
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0..=1), interpolated by rank within its bucket;
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if rank < (below + count) as f64 {
                let (low, width) = bucket_range(index);
                let within = (rank - below as f64 + 0.5) / count as f64;
                return low + width * within;
            }
            below += count;
        }
        let (low, width) = bucket_range(BUCKETS - 1);
        low + width
    }
}

/// One histogram per measured segment. Quantiles are the median over the
/// segments of each segment's quantile, so a burst of host noise that hits
/// one segment moves the result less than it would move a pooled quantile.
#[derive(Clone, Default)]
pub struct Segmented(Vec<Hist>);

impl Segmented {
    /// Starts the next segment.
    pub fn begin(&mut self) {
        self.0.push(Hist::default());
    }

    /// The histogram of the current segment.
    pub fn current(&mut self) -> &mut Hist {
        if self.0.is_empty() {
            self.begin();
        }
        self.0.last_mut().expect("a segment was just begun")
    }

    /// Merges segment by segment.
    pub fn merge(&mut self, other: &Segmented) {
        for (index, hist) in other.0.iter().enumerate() {
            if index == self.0.len() {
                self.begin();
            }
            self.0[index].merge(hist);
        }
    }

    pub fn count(&self) -> u64 {
        self.0.iter().map(Hist::count).sum()
    }

    /// The median over non-empty segments of their `q`-quantiles.
    pub fn quantile(&self, q: f64) -> f64 {
        let per_segment: Vec<f64> = self
            .0
            .iter()
            .filter(|hist| hist.count() > 0)
            .map(|hist| hist.quantile(q))
            .collect();
        crate::median(&per_segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_contain_their_values() {
        let edges = (1..40).map(|s| 1u64 << s).flat_map(|v| [v - 1, v, v + 1]);
        for value in (0..5_000u64).chain(edges) {
            let (low, width) = bucket_range(bucket_of(value));
            assert!(
                low <= value as f64 && (value as f64) < low + width,
                "{value}"
            );
        }
        assert!((1..100_000u64).all(|v| bucket_of(v) >= bucket_of(v - 1)));
    }

    #[test]
    fn quantiles_track_a_uniform_distribution() {
        let mut hist = Hist::default();
        for value in 1..=100_000u64 {
            hist.record(value);
        }
        let p50 = hist.quantile(0.5);
        let p99 = hist.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.005, "{p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.005, "{p99}");
        assert_eq!(hist.count(), 100_000);
    }

    #[test]
    fn segmented_quantile_is_the_median_of_segments() {
        let mut series = Segmented::default();
        for value in [10, 20, 1000] {
            series.begin();
            series.current().record(value);
        }
        let mut other = Segmented::default();
        other.current().record(10);
        series.merge(&other);
        assert_eq!(series.count(), 4);
        assert_eq!(series.quantile(0.5), 20.5);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile(0.0), 10.5);
    }
}
