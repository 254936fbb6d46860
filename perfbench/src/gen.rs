//! The benchmark's own open-loop load generator.
//!
//! Everything that decides *what* arrives *when* lives here, driven by the
//! benchmark's own PRNG, so no change to the program (including its `Rng`
//! or `tasfar_serve::traffic`) can move the workload:
//!
//! - arrival times are a Poisson process at a constant rate, conditioned on
//!   its count: `round(rate · duration)` instants drawn uniformly over the
//!   phase and sorted (the order statistics of uniforms are exactly the
//!   arrival times of a Poisson process with that many events);
//! - predict tenants are drawn from an exact discrete Zipf law;
//! - predict payloads are rows drawn uniformly from a fixed pool;
//! - adapt ops walk a seeded permutation of walkers, about a quarter of
//!   them twice, each adapt of a walker taking that walker's next slice.

/// SplitMix64: a tiny, fast, well-mixed PRNG. Same seed, same stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated from other streams by `tag`.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut s = SplitMix64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.next_u64();
        s
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be positive. The modulo bias
    /// is below 2⁻⁴⁰ for every `n` this benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below: empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal variate (Box–Muller, one of the pair).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// An exact discrete Zipf law over ranks `0..n`: rank `k` has probability
/// ∝ `(k + 1)^-s`. Sampling is a binary search over the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The law over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf: at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank for a uniform draw `u ∈ [0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// What one arrival asks of the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A one-row predict for `tenant`, payload row `row` of the pool.
    Predict { tenant: u64, row: usize },
    /// An adapt of `walker` on its unlabeled slice number `slice`.
    Adapt { walker: usize, slice: usize },
}

/// One scheduled arrival, `at_ns` after the phase starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub at_ns: u64,
    pub op: Op,
}

/// `round(rate · seconds)` Poisson arrival instants over the phase, sorted.
pub fn poisson_times(rng: &mut SplitMix64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let n = (rate_per_s * seconds).round() as usize;
    let span_ns = seconds * 1e9;
    let mut t: Vec<u64> = (0..n).map(|_| (rng.next_f64() * span_ns) as u64).collect();
    t.sort_unstable();
    t
}

/// The predict stream of a phase: Poisson arrivals at `rate_per_s`, Zipf
/// tenants, uniformly chosen payload rows out of `pool_rows`.
pub fn predict_stream(
    seed: u64,
    rate_per_s: f64,
    seconds: f64,
    zipf: &Zipf,
    pool_rows: usize,
) -> Vec<Arrival> {
    let mut times = SplitMix64::new(seed, 1);
    let mut who = SplitMix64::new(seed, 2);
    let mut rows = SplitMix64::new(seed, 3);
    poisson_times(&mut times, rate_per_s, seconds)
        .into_iter()
        .map(|at_ns| Arrival {
            at_ns,
            op: Op::Predict {
                tenant: zipf.rank(who.next_f64()) as u64,
                row: rows.below(pool_rows),
            },
        })
        .collect()
}

/// The adapt stream of a phase: Poisson arrivals at `rate_per_s` over
/// [`adapt_order`]'s walker sequence.
pub fn adapt_stream(seed: u64, rate_per_s: f64, seconds: f64, walkers: usize) -> Vec<Arrival> {
    let mut times = SplitMix64::new(seed, 4);
    let at = poisson_times(&mut times, rate_per_s, seconds);
    let order = adapt_order(&mut SplitMix64::new(seed, 5), walkers, at.len());
    at.into_iter()
        .zip(order)
        .map(|(at_ns, (walker, slice))| Arrival {
            at_ns,
            op: Op::Adapt { walker, slice },
        })
        .collect()
}

/// `n` adapts over `walkers` walkers: three quarters of the adapts go to
/// distinct walkers (a seeded permutation), the rest repeat walkers from the
/// start of that permutation, and the whole sequence is shuffled. The k-th
/// adapt of a walker takes slice `k`, so no two adapts share an input.
///
/// # Panics
/// When the walkers cannot cover `n` adapts with at most two slices each.
pub fn adapt_order(rng: &mut SplitMix64, walkers: usize, n: usize) -> Vec<(usize, usize)> {
    let distinct = (n - n / 4).min(walkers);
    let repeats = n - distinct;
    assert!(
        repeats <= distinct,
        "adapt_order: {walkers} walkers cannot cover {n} adapts"
    );
    let perm = rng.permutation(walkers);
    let mut seq: Vec<usize> = perm[..distinct]
        .iter()
        .chain(&perm[..repeats])
        .copied()
        .collect();
    for i in (1..seq.len()).rev() {
        seq.swap(i, rng.below(i + 1));
    }
    let mut seen = vec![0usize; walkers];
    seq.into_iter()
        .map(|w| {
            seen[w] += 1;
            (w, seen[w] - 1)
        })
        .collect()
}

/// Merges two sorted streams into one, by due time (stable: `a` first on
/// ties).
pub fn merge(a: Vec<Arrival>, b: Vec<Arrival>) -> Vec<Arrival> {
    let mut out: Vec<Arrival> = a.into_iter().chain(b).collect();
    out.sort_by_key(|x| x.at_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let z = Zipf::new(1000, 1.1);
        let a = predict_stream(7, 500.0, 2.0, &z, 64);
        let b = predict_stream(7, 500.0, 2.0, &z, 64);
        let c = predict_stream(8, 500.0, 2.0, &z, 64);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert_eq!(a.len(), 1000, "count is rate × seconds");
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.iter().all(|x| x.at_ns < 2_000_000_000));
        assert_eq!(
            adapt_stream(3, 6.5, 16.0, 96),
            adapt_stream(3, 6.5, 16.0, 96)
        );
    }

    #[test]
    fn zipf_head_is_heavier_than_tail() {
        let z = Zipf::new(64, 1.2);
        let mut rng = SplitMix64::new(1, 0);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[z.rank(rng.next_f64())] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 63);
    }

    #[test]
    fn adapt_order_uses_distinct_slices() {
        let order = adapt_order(&mut SplitMix64::new(9, 0), 96, 104);
        assert_eq!(order.len(), 104);
        let mut pairs = order.clone();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 104, "no (walker, slice) is adapted twice");
        assert!(order.iter().all(|&(_, s)| s < 2));
        assert_eq!(order.iter().filter(|&&(_, s)| s == 1).count(), 26);
    }
}
