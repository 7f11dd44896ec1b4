//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by a factor of up to about 1.6 over minutes, as neighbours load the
//! cores this process shares with them (the process's CPU time stretches
//! with its wall time, so this is not time stolen by the hypervisor).
//! Two runs a few minutes apart can then differ by a quarter in every
//! compute-bound time, however long each run is.
//!
//! A calibration loop — fixed work of the benchmark's own, never code of
//! the program — runs just before every campaign.  Its wall time measures
//! how fast the host is running right then; a compute-bound time scaled
//! by [`NOMINAL_MS`] over the calibration time nearby is the time it
//! would have taken on the host running at its nominal speed.  A change
//! to the program moves the scaled time exactly as much as the raw one,
//! since the loop does not change; a host slowdown stretches both and
//! cancels.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// Time of one calibration loop on an uncontended core of the host the
/// benchmark was tuned on (a 2 GHz Xeon vCPU), milliseconds.  Scaled
/// times are in milliseconds of that host.
pub const NOMINAL_MS: f64 = 2.0;

/// Calibration samples on each side of a campaign whose median gives
/// that campaign's host speed.
const HALF_WINDOW: usize = 10;

/// Set insertions of one calibration loop.
const STEPS: usize = 40_000;

type KeySet = HashSet<u64, BuildHasherDefault<DefaultHasher>>;

/// The calibration loop: inserts pseudo-random keys into a hash set
/// (deterministic hasher) and sorts what it kept — the hashing and cache
/// traffic the program's state-space searches are made of.  Both
/// containers are cleared first and keep their memory between loops.
/// Returns a value that depends on all of the work.
pub fn calibration_loop(set: &mut KeySet, kept: &mut Vec<u64>) -> u64 {
    set.clear();
    kept.clear();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % (1 << 18);
        if set.insert(key) {
            kept.push(key.wrapping_mul(0x2545_F491_4F6C_DD1D));
        }
    }
    kept.sort_unstable();
    kept[kept.len() / 2] ^ set.len() as u64
}

/// The calibration samples of one run, in the order they were taken.
///
/// A sample runs the loop on one thread, also for campaigns that compute
/// on two: the loop run on two threads at once also measures whether the
/// scheduler has both cores free, which stretches a two-thread campaign's
/// wall time far less than it stretches the sample, and scaling by it
/// spread the results more than not scaling at all.
#[derive(Clone, Debug)]
pub struct Calibration {
    samples_ms: Vec<f64>,
    set: KeySet,
    kept: Vec<u64>,
}

impl Default for Calibration {
    /// Allocates the loop's containers at their full size once, so no
    /// sample grows them: calibrating adds a fixed amount to the resident
    /// set instead of allocating and freeing a megabyte beside every
    /// campaign.
    fn default() -> Calibration {
        Calibration {
            samples_ms: Vec::new(),
            set: KeySet::with_capacity_and_hasher(STEPS, Default::default()),
            kept: Vec::with_capacity(STEPS),
        }
    }
}

impl Calibration {
    /// Takes one sample and returns its index.
    pub fn probe(&mut self) -> usize {
        let t = Instant::now();
        std::hint::black_box(calibration_loop(&mut self.set, &mut self.kept));
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.samples_ms.len() - 1
    }

    /// The factor that scales a time measured beside sample `at` to the
    /// nominal host speed: [`NOMINAL_MS`] over the median of the samples
    /// within [`HALF_WINDOW`] of it (1 without samples).
    pub fn factor_at(&self, at: usize) -> f64 {
        let lo = at.saturating_sub(HALF_WINDOW);
        let hi = (at + HALF_WINDOW + 1).min(self.samples_ms.len());
        factor_of(self.samples_ms.get(lo..hi).unwrap_or(&[]))
    }

    /// The factor over every sample of the run.
    pub fn run_factor(&self) -> f64 {
        factor_of(&self.samples_ms)
    }

    /// Median calibration time of the run, milliseconds (0 without
    /// samples).
    pub fn median_ms(&self) -> f64 {
        crate::sys::quantile(&self.samples_ms, 0.5)
    }
}

/// [`NOMINAL_MS`] over the median of `samples` (1 without samples).
fn factor_of(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        NOMINAL_MS / crate::sys::quantile(samples, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_is_deterministic() {
        let (mut set, mut kept) = (KeySet::default(), Vec::new());
        let first = calibration_loop(&mut set, &mut kept);
        assert_eq!(first, calibration_loop(&mut set, &mut kept));
    }

    #[test]
    fn factors_follow_nearby_samples() {
        let mut cal = Calibration {
            samples_ms: vec![NOMINAL_MS; 30],
            ..Calibration::default()
        };
        cal.samples_ms.extend([2.0 * NOMINAL_MS; 30]);
        assert_eq!(cal.factor_at(0), 1.0);
        assert_eq!(cal.factor_at(59), 0.5);
        assert_eq!(Calibration::default().run_factor(), 1.0);
        let at = cal.probe();
        assert_eq!(at, 60);
        assert!(cal.factor_at(at) > 0.0);
    }
}
