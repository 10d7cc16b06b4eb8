//! Seeded op streams. The benchmark generates every op from `--seed` and
//! hands the program only the generated calls, so one seed always replays
//! one stream.

/// SplitMix64: small, fast and good enough to draw op kinds.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, worker, purpose)`; distinct triples give
    /// independent streams.
    pub fn new(seed: u64, worker: usize, purpose: u64) -> Self {
        let mut rng = Rng(seed ^ 0x6A09_E667_F3BC_C909);
        rng.0 ^= rng
            .next_u64()
            .wrapping_add(worker as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        rng.0 ^= rng
            .next_u64()
            .wrapping_add(purpose)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Stream purposes, so each consumer of a seed draws independent numbers.
pub const PURPOSE_OPS: u64 = 1;
pub const PURPOSE_CTX: u64 = 2;
pub const PURPOSE_ORDER: u64 = 3;

/// An op of a lease workload: grant a new name, or release the oldest held.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseOp {
    Lease,
    Release,
}

/// A FIFO window that random-walks around `target` live leases, never
/// leaving `target ± slack`: each op leases or releases the oldest with
/// equal odds inside the band and is forced back at its edges.
#[derive(Clone, Debug)]
pub struct WindowStream {
    rng: Rng,
    window: usize,
    low: usize,
    high: usize,
}

impl WindowStream {
    pub fn new(seed: u64, worker: usize, target: usize, slack: usize) -> Self {
        assert!(slack < target, "the window must stay non-empty");
        WindowStream {
            rng: Rng::new(seed, worker, PURPOSE_OPS),
            window: target,
            low: target - slack,
            high: target + slack,
        }
    }

    /// The window size the stream starts from (filled during warm-up).
    pub fn window(&self) -> usize {
        self.window
    }

    pub fn next_op(&mut self) -> LeaseOp {
        let lease = if self.window <= self.low {
            true
        } else if self.window >= self.high {
            false
        } else {
            self.rng.below(2) == 0
        };
        if lease {
            self.window += 1;
            LeaseOp::Lease
        } else {
            self.window -= 1;
            LeaseOp::Release
        }
    }
}

/// The 7:1 increment/read mix of `count_mix`: each op is a read with
/// probability 1/8.
#[derive(Clone, Debug)]
pub struct MixStream {
    rng: Rng,
}

impl MixStream {
    pub const READ_ONE_IN: u64 = 8;

    pub fn new(seed: u64, worker: usize) -> Self {
        MixStream {
            rng: Rng::new(seed, worker, PURPOSE_OPS),
        }
    }

    /// Whether the next op is a read (else an increment).
    pub fn next_is_read(&mut self) -> bool {
        self.rng.below(Self::READ_ONE_IN) == 0
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates): the order in which a
/// `lease_ramp` round releases its names.
pub fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_ops(seed: u64, worker: usize) -> Vec<LeaseOp> {
        let mut stream = WindowStream::new(seed, worker, 512, 64);
        (0..20_000).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_an_identical_window_stream() {
        assert_eq!(window_ops(7, 0), window_ops(7, 0));
        assert_ne!(window_ops(7, 0), window_ops(8, 0));
        assert_ne!(window_ops(7, 0), window_ops(7, 1));
    }

    #[test]
    fn window_stays_in_its_band() {
        let mut stream = WindowStream::new(3, 0, 512, 64);
        let mut window = stream.window();
        for _ in 0..100_000 {
            match stream.next_op() {
                LeaseOp::Lease => window += 1,
                LeaseOp::Release => window -= 1,
            }
            assert!((448..=576).contains(&window));
            assert_eq!(window, stream.window());
        }
    }

    #[test]
    fn same_seed_gives_an_identical_mix_and_order() {
        let reads = |seed| {
            let mut mix = MixStream::new(seed, 1);
            (0..10_000).map(|_| mix.next_is_read()).collect::<Vec<_>>()
        };
        assert_eq!(reads(11), reads(11));
        assert_ne!(reads(11), reads(12));
        let share = reads(11).iter().filter(|&&r| r).count() as f64 / 10_000.0;
        assert!((share - 0.125).abs() < 0.02, "{share}");

        let order = |seed| shuffled(&mut Rng::new(seed, 0, PURPOSE_ORDER), 512);
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
        let mut sorted = order(5);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..512).collect::<Vec<_>>());
    }
}
