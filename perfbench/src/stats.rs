//! Small measurement helpers: a seeded generator, percentiles, and the
//! process's peak resident set.

/// SplitMix64: a tiny, well-mixed, seedable generator.  Every input the
/// benchmark generates comes from one of these, so a seed fixes the inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream derived from this seed and a stream number.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut mix = Rng::new(seed.wrapping_add(stream.wrapping_mul(0xA24B_AED4_963E_E407)));
        Rng::new(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// What one calibration run takes on an otherwise idle machine of the kind
/// the benchmark was defined on (2 vCPUs); see [`slowdown`].
const NOMINAL_CALIBRATION_MS: f64 = 3.6;

/// How much slower than nominal the machine runs right now: the fastest of
/// five runs (after one warm-up run) of a fixed kernel — sorting,
/// ordered-map inserts and range lookups over seeded data, a mix of
/// allocation, branches and pointer chasing like the analyzer's — divided
/// by its nominal time.  The kernel is the benchmark's own code, so changes
/// to the program never move it; it runs while the workload is paused, so
/// only other tenants of the machine do.  On a shared host whose speed
/// drifts by a third over minutes, dividing times by it removes part of
/// that drift: the analyzer slows down more than the kernel does.
///
/// With `threads > 1` the kernel runs on that many threads at once and the
/// mean is taken, for workloads that keep several cores busy.
pub fn slowdown(threads: usize) -> f64 {
    // The first run pays for page faults on fresh memory; it is dropped.
    let one = || {
        (0..6)
            .map(|_| calibration_ms())
            .skip(1)
            .fold(f64::MAX, f64::min)
    };
    let total: f64 = if threads <= 1 {
        one()
    } else {
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..threads).map(|_| scope.spawn(one)).collect();
            runs.into_iter()
                .map(|r| r.join().expect("calibration thread panicked"))
                .sum()
        })
    };
    total / threads.max(1) as f64 / NOMINAL_CALIBRATION_MS
}

fn calibration_ms() -> f64 {
    let started = std::time::Instant::now();
    let mut rng = Rng::new(42);
    let mut map = std::collections::BTreeMap::new();
    for i in 0..20_000u64 {
        map.insert(rng.next_u64() % 100_000, i);
    }
    let mut keys: Vec<u64> = (0..40_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let mut acc = 0u64;
    for k in keys.iter().step_by(7) {
        if let Some((_, v)) = map.range(k % 100_000..).next() {
            acc = acc.wrapping_add(*v);
        }
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
    }
}
