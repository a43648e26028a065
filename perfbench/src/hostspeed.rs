//! The host's speed at the moment, from a fixed reference computation.
//!
//! On a shared host the cores run the same code up to half again faster
//! or slower from one second to the next, and for minutes at a time, as
//! other machines load the cores' sibling threads and the caches they
//! share. CPU time does not remove that: the cores really are slower.
//! Code that keeps many execution units busy slows most, code bound by
//! one chain of dependent loads least, and the ingest path sits between.
//! The benchmark therefore times a fixed computation of its own that
//! mixes the kinds of work the ingest path does — a word-at-a-time
//! (SWAR) varint-boundary scan (half the time), Mersenne-prime
//! multiply-folds kept as running minima (a quarter) and a dependent
//! chain of table-hash lookups (a quarter) — after every measured epoch
//! or pass, and divides that unit's rate by the host speed: nominal over
//! measured reference time, to the power [`SENSITIVITY`]. Over ten seeds
//! of each workload the raw medians spread 0.11–0.34 (distance between
//! the quartiles over the median) and the normalised ones 0.05–0.10.
//!
//! The reference is the benchmark's code, not the program's: no change
//! to the program changes it, so a faster program shows at full size in
//! the normalised rate.

use crate::gen::Rng;
use crate::stats::CpuClock;

/// Reference bytes: varint-like, private-cache resident.
const BYTES: usize = 96 << 10;
/// Hash table entries (256 KiB of u32).
const TABLE: usize = 1 << 16;
/// Sizes of the three parts, so that they take about a quarter, half
/// and a quarter of the time: bytes of the lookup chain, SWAR passes
/// over the bytes, fold passes over their words.
const CHAIN_BYTES: usize = 28 << 10;
const SCAN_PASSES: usize = 14;
const FOLD_PASSES: usize = 2;
/// CPU seconds one [`Reference::time`] takes on the host at its nominal
/// speed: about the median over many runs on a 2-vCPU shared Xeon VM.
/// Rates are reported as if every unit had run at this speed, so they
/// read as that host's typical key frames per second.
pub const NOMINAL_S: f64 = 1.2e-3;

pub struct Reference {
    bytes: Vec<u8>,
    table: Vec<u32>,
}

impl Reference {
    /// The same reference in every run: it is generated from a constant
    /// seed, never the workload's.
    pub fn new() -> Reference {
        let mut rng = Rng::new(0x5eed_ba5e);
        // Varint bytes: about one in four continues its value.
        let bytes = (0..BYTES)
            .map(|_| {
                let b = rng.next_u64();
                (b as u8 & 0x7f) | if b >> 62 == 0 { 0x80 } else { 0 }
            })
            .collect();
        let table = (0..TABLE).map(|_| rng.next_u64() as u32).collect();
        Reference { bytes, table }
    }

    /// Latency-bound part: each lookup's index depends on the last hash.
    fn chain(&self) -> u64 {
        let (mut h, mut v, mut shift) = (0u64, 0u64, 0u32);
        for &b in &self.bytes[..CHAIN_BYTES] {
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 != 0 {
                shift = (shift + 7) & 63;
                continue;
            }
            let t = self.table[((v ^ h) as usize) & (TABLE - 1)];
            h = h.rotate_left(5) ^ u64::from(t).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            v = 0;
            shift = 0;
        }
        h
    }

    /// Throughput-bound part: independent word-at-a-time work per word.
    fn scan(&self) -> u64 {
        const HIGH: u64 = 0x8080_8080_8080_8080;
        const LOW: u64 = 0x0101_0101_0101_0101;
        let mut acc = 0u64;
        for _ in 0..SCAN_PASSES {
            for chunk in self.bytes.chunks_exact(8) {
                let w = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                let ends = !w & HIGH;
                acc = acc.wrapping_add(u64::from(ends.count_ones() + ends.trailing_zeros()))
                    ^ (w.wrapping_sub(LOW) & !w & HIGH);
            }
        }
        acc
    }

    /// Multiply-bound part: each word hashed under eight coefficients
    /// modulo 2^61 - 1, the minimum kept per coefficient.
    fn fold(&self) -> u64 {
        const P: u64 = (1 << 61) - 1;
        let mut mins = [u64::MAX; 8];
        for _ in 0..FOLD_PASSES {
            for chunk in self.bytes.chunks_exact(8) {
                let x = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                for (k, m) in mins.iter_mut().enumerate() {
                    let a = 0x9e37_79b9 + 2 * k as u64 + 1;
                    let prod = u128::from(a) * u128::from(x) + k as u128;
                    let h = ((prod as u64) & P) + ((prod >> 61) as u64);
                    *m = (*m).min(h);
                }
            }
        }
        mins.iter().fold(0, |acc, &m| acc ^ m)
    }

    /// CPU seconds of one reference computation on this thread.
    pub fn time(&self) -> f64 {
        let clock = CpuClock::this_thread();
        let t = clock.seconds();
        std::hint::black_box(self.chain() ^ self.scan() ^ self.fold());
        clock.seconds() - t
    }
}

/// How much of the reference's swing the program's rates follow. Over
/// ten seeds of each workload, rates divided by the full swing still
/// moved against the host speed (correlation -0.27 to -0.91) on five of
/// the six pairs of throughput metric and workload; the quartile spread
/// of the normalised medians was 0.04–0.13 at 1 and 0.05–0.10 at 0.75.
const SENSITIVITY: f64 = 0.75;

/// How fast the host ran a unit of work timed between two reference
/// computations: nominal over measured reference time, the measured one
/// being the mean of the two, to the power [`SENSITIVITY`]. A rate
/// measured in the unit, divided by this, is the rate at nominal speed.
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    (NOMINAL_S / (0.5 * (before_s + after_s))).powf(SENSITIVITY)
}

/// Brackets a sequence of measured units with reference computations:
/// each unit shares the reference timed between it and the previous one.
pub struct Tracker {
    reference: Reference,
    last_s: f64,
}

impl Tracker {
    pub fn new() -> Tracker {
        let reference = Reference::new();
        // Fault the buffers in before the first timed computation.
        reference.time();
        let last_s = reference.time();
        Tracker { reference, last_s }
    }

    /// Time the reference now, starting a new unit, and return the host
    /// speed over the unit that just ended.
    pub fn lap(&mut self) -> f64 {
        let now_s = self.reference.time();
        let s = speed(self.last_s, now_s);
        self.last_s = now_s;
        s
    }

    /// Skip a stretch that is not a measured unit: the next unit starts
    /// from a fresh reference computation.
    pub fn restart(&mut self) {
        self.last_s = self.reference.time();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_fixed_and_takes_time() {
        let (a, b) = (Reference::new(), Reference::new());
        assert_eq!(
            (a.chain(), a.scan(), a.fold()),
            (b.chain(), b.scan(), b.fold())
        );
        assert!(a.time() > 0.0);
    }

    #[test]
    fn speed_is_nominal_over_the_mean_reference_time() {
        assert_eq!(speed(NOMINAL_S, NOMINAL_S), 1.0);
        // A host twice as slow as nominal on average: the program is
        // taken to run at 2^-0.75 of its nominal speed.
        let half = speed(1.5 * NOMINAL_S, 2.5 * NOMINAL_S);
        assert!((half - 0.5f64.powf(SENSITIVITY)).abs() < 1e-12);
        assert!(speed(0.5 * NOMINAL_S, 0.5 * NOMINAL_S) > 1.0);
    }
}
