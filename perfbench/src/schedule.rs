//! Seeded open-loop arrival schedules and generator-lag accounting.

use std::time::{Duration, Instant};

/// SplitMix64: a small, well-mixed generator, so a schedule depends only on
/// the seed and not on another crate's random stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Poisson arrivals at `rate` per second over `duration`: the due offsets
/// (from the start of the run) of every request, ascending.
pub fn poisson(rate: f64, duration: Duration, rng: &mut SplitMix) -> Vec<Duration> {
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Blocks until `due`: sleeps while the wait is long, then spins (yielding)
/// for the last stretch so sends leave within a few microseconds of their
/// due time without a busy core between far-apart arrivals.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(250);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// How late a send left relative to its due time, in microseconds; zero
/// when it left on time.
pub fn lag_us(due: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due).as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(500.0, Duration::from_secs(2), &mut SplitMix::new(7));
        let b = poisson(500.0, Duration::from_secs(2), &mut SplitMix::new(7));
        let c = poisson(500.0, Duration::from_secs(2), &mut SplitMix::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_ascending_and_hits_the_rate() {
        let due = poisson(2000.0, Duration::from_secs(5), &mut SplitMix::new(1));
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.last().unwrap() < &Duration::from_secs(5));
        let n = due.len() as f64;
        // Poisson count over 5 s at 2000/s: mean 10000, sd 100.
        assert!((n - 10_000.0).abs() < 500.0, "{n} arrivals");
    }

    #[test]
    fn lag_counts_only_late_sends() {
        let due = Instant::now();
        assert_eq!(lag_us(due, due), 0.0);
        assert_eq!(lag_us(due + Duration::from_micros(5), due), 0.0);
        let late = lag_us(due, due + Duration::from_micros(250));
        assert!((late - 250.0).abs() < 1e-6, "{late}");
    }

    #[test]
    fn wait_until_never_returns_early() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due);
        assert!(Instant::now() >= due);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix::new(3);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
