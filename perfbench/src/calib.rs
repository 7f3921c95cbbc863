//! Machine-speed calibration. The benchmark's host shares its cores with
//! other tenants, and their speed drifts by up to 2.5× over seconds to
//! minutes, which no repetition inside one run averages away. So every timed
//! stretch is divided by how much slower than nominal the host ran during
//! it, and the figures are reported at nominal speed.
//!
//! The yardstick is a single-thread [`Reference`]: fixed integer kernels
//! that share no code with the repository, one on a table that stays in L1
//! and one on a 512 KiB table that does not, because neighbours that contend
//! for the caches slow the program more than a cache-resident loop. Over
//! 150 s on the reference host, one `Suite::all()` took between 2.5 and
//! 5.1 ms; against the reference timed beside it, its time moved at a slope
//! of 0.96 (the L1 kernel alone: 1.12; the 512 KiB one alone: 0.82).
//!
//! The reference is used two ways. A short call (a setup) is timed between
//! two runs of it, alone or in a batch ([`Reference::time`]). A seconds-long stretch (a
//! `suite-synth` sweep, a `service-cold` segment) is [`monitored`]: a thread
//! runs the reference every 100 ms while the stretch runs. Two all-core
//! calibrations around each stretch, used before, missed the drift inside
//! it: the suite's median setup moved by a quarter between two sets of runs
//! of one build, and one sweep's wall at nominal speed ranged over ±20%
//! within a run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The kernels' table entries: 32 KiB and 512 KiB.
const TABLES: [usize; 2] = [1 << 12, 1 << 16];

/// Time of one kernel iteration, either table, at nominal speed: the
/// reference host (2 vCPUs at 2.1 GHz) with nothing else running.
const NOMINAL_ITERATION_S: f64 = 5e-9;

/// Xorshift, a table walk and a data-dependent branch: the integer, branchy
/// mix the synthesizer runs. The table's length is a power of two.
fn kernel(seed: u64, iterations: u64, table: &mut [u64]) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
    let size = table.len();
    let mut acc = 0u64;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & (size - 1);
        table[i] = table[i].wrapping_add(u64::from(x.count_ones()));
        if x & 3 == 0 {
            acc ^= table[(x >> 12) as usize & (size - 1)];
        }
    }
    std::hint::black_box(acc);
}

/// A single-thread reference: both kernels, half the iterations each, on
/// tables allocated once so no page fault lands in a timing.
pub struct Reference {
    iterations: u64,
    tables: [Vec<u64>; 2],
}

impl Reference {
    /// A reference of `iterations` in all, `iterations × 5 ns` at nominal
    /// speed. Choose it near the length of the call it will time.
    pub fn new(iterations: u64) -> Reference {
        let mut reference = Reference { iterations, tables: TABLES.map(|size| vec![0; size]) };
        reference.slowdown();
        reference
    }

    /// One run's wall over its nominal: how much slower than nominal the
    /// host runs one thread at this moment.
    fn slowdown(&mut self) -> f64 {
        let start = Instant::now();
        for table in &mut self.tables {
            kernel(self.iterations, self.iterations / 2, table);
        }
        start.elapsed().as_secs_f64() / (self.iterations as f64 * NOMINAL_ITERATION_S)
    }

    /// Times `reps` samples of `batch` calls of `f` each, every sample
    /// between two runs of the reference (a run sits between two samples,
    /// so it serves both), and returns the median of a call's mean wall in
    /// its sample over the mean slowdown of the sample's two references, in
    /// seconds at nominal speed, with the last call's value. Each call's
    /// value is dropped before the next call, outside the timing.
    ///
    /// Calls of tens of microseconds come in batches: right after a
    /// reference, a `Server::bind` ran slower and less steadily than in a
    /// run of binds.
    pub fn time<T>(&mut self, reps: usize, batch: usize, mut f: impl FnMut() -> T) -> (f64, T) {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        let mut before = self.slowdown();
        for _ in 0..reps {
            let mut wall = 0.0;
            for _ in 0..batch {
                drop(last.take());
                let start = Instant::now();
                let value = f();
                wall += start.elapsed().as_secs_f64();
                last = Some(value);
            }
            let after = self.slowdown();
            times.push(wall / batch as f64 / ((before + after) / 2.0));
            before = after;
        }
        let median = crate::stats::median(&crate::stats::sorted(times));
        (median, last.expect("reps and batch are at least 1"))
    }
}

/// Reference iterations per [`monitored`] sample: 0.5 ms at nominal speed.
const SAMPLE_ITERATIONS: u64 = 100_000;
/// Time between two [`monitored`] samples.
const SAMPLE_PERIOD: Duration = Duration::from_millis(100);

/// Runs `f` while a thread samples the host's speed with the single-thread
/// reference every [`SAMPLE_PERIOD`], and returns `f`'s value and how much
/// slower than nominal the host ran meanwhile. Work done is speed integrated
/// over time, so the slowdown is the harmonic mean of the samples'.
///
/// The sampler costs half a percent of one core. What runs beside it does
/// not move it: with both cores idle, spinning on registers, walking an
/// 8 MiB table or building the suite, its median slowdown on the reference
/// host stayed within the host's own drift (1.76 to 1.87).
pub fn monitored<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut reference = Reference::new(SAMPLE_ITERATIONS);
            let mut speeds = Vec::new();
            loop {
                speeds.push(1.0 / reference.slowdown());
                if done.load(Ordering::Acquire) {
                    break speeds;
                }
                std::thread::park_timeout(SAMPLE_PERIOD);
            }
        });
        let value = f();
        done.store(true, Ordering::Release);
        sampler.thread().unpark();
        let speeds = sampler.join().expect("the sampler does not panic");
        (value, speeds.len() as f64 / speeds.iter().sum::<f64>())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_the_last_value_and_a_positive_time() {
        let mut calls = 0;
        let (time, last) = Reference::new(1_000).time(5, 3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (15, 15));
        assert!(time > 0.0 && time.is_finite());
    }

    #[test]
    fn monitored_samples_even_an_instant_stretch() {
        let (value, slowdown) = monitored(|| 7);
        assert_eq!(value, 7);
        assert!(slowdown > 0.0 && slowdown.is_finite());
    }
}
