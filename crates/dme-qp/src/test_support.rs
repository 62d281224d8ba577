//! Helpers shared by the unit tests that hold the fused Newton-step
//! kernels to their composed oracles bit for bit.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// xorshift64* stream for reproducible test programs.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// `10^u` for `u` uniform in `[lo, hi)`.
    pub(crate) fn decades(&mut self, lo: f64, hi: f64) -> f64 {
        10f64.powf(self.range(lo, hi))
    }

    /// `true` with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub(crate) fn pick(&mut self, xs: &[f64]) -> f64 {
        xs[self.below(xs.len())]
    }
}

/// Equal bits, with every NaN equal to every other: Rust leaves NaN
/// payloads and signs unspecified, so two correct evaluations of the same
/// operations may differ there and nowhere else.
pub(crate) fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Asserts [`same_bits`] entry by entry.
pub(crate) fn assert_same_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            same_bits(g, w),
            "{what}[{i}]: {g:e} ({:#x}) vs {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

static SWITCH: Mutex<()> = Mutex::new(());

/// Resets the serial switch even when a check panics.
struct SerialOff;

impl Drop for SerialOff {
    fn drop(&mut self) {
        dme_par::set_force_serial(false);
    }
}

/// Runs `check` on the pool (two threads unless another test sized it
/// first) and again under `dme_par::set_force_serial(true)`. The tests that
/// flip the switch take turns, so none of them sees another's setting.
pub(crate) fn on_pool_and_serial(mut check: impl FnMut()) {
    let _turn: MutexGuard<'_, ()> = SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("DME_NUM_THREADS", "2");
    let _reset = SerialOff;
    dme_par::set_force_serial(false);
    check();
    dme_par::set_force_serial(true);
    check();
}
