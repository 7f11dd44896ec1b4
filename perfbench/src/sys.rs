//! Process accounting, order statistics, the seeded generator and the
//! input digest.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn rusage(who: i32) -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a properly sized and aligned `struct rusage` that
    // the call only writes into.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    r
}

fn user_plus_system(r: &Rusage) -> Duration {
    let us = (r.utime.sec + r.stime.sec) * 1_000_000 + r.utime.usec + r.stime.usec;
    Duration::from_micros(us.max(0) as u64)
}

/// User plus system CPU time of the whole process so far.
pub fn cpu_time() -> Duration {
    user_plus_system(&rusage(RUSAGE_SELF))
}

/// User plus system CPU time of the calling thread so far.
pub fn thread_cpu_time() -> Duration {
    user_plus_system(&rusage(RUSAGE_THREAD))
}

/// Peak resident set size of the process, in MiB.
///
/// Read from `VmHWM` in `/proc/self/status`, the high-water mark of this
/// program image: `getrusage`'s `ru_maxrss` carries over an `exec`, so
/// under `cargo run` it would report cargo's own peak whenever that is
/// the larger.  Falls back to `ru_maxrss` where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    hwm_kb.unwrap_or(rusage(RUSAGE_SELF).maxrss_kb as f64) / 1024.0
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so workloads sharing a
    /// seed still draw independent streams.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv64(stream.as_bytes()))
    }

    /// Next 64 random bits.
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

    /// A Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Digest of a workload's generated inputs: every text, seed and flag
/// that reaches the program, in order.  Two runs with one seed print the
/// same digest; a different seed prints a different one.
#[derive(Clone, Debug, Default)]
pub struct Digest {
    parts: Vec<u64>,
}

impl Digest {
    /// Feeds one input item.
    pub fn add(&mut self, item: &str) {
        self.parts.push(fnv64(item.as_bytes()));
    }

    /// Hex digest over all items fed so far.
    pub fn hex(&self) -> String {
        let bytes: Vec<u8> = self.parts.iter().flat_map(|p| p.to_le_bytes()).collect();
        format!(
            "{:016x}{:016x}",
            fnv64(&bytes),
            fnv64(&[&bytes[..], b"perfbench"].concat())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, "x");
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut other = Rng::new(8, "x");
        assert_ne!(a[0], other.next_u64());
        let mut p = Rng::new(1, "p").permutation(10);
        p.sort_unstable();
        assert_eq!(p, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn process_accounting_reads() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        assert!(cpu_time() >= before);
        assert!(thread_cpu_time() <= cpu_time());
    }
}
