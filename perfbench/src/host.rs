//! Host-speed calibration.
//!
//! This benchmark's machine (a 2-vCPU KVM guest) changes speed with the
//! load of its neighbours: throughput-bound code, the tagger included,
//! runs up to twice as slow for stretches of seconds to minutes, while
//! latency-bound loops stay flat. Whole 30 s runs can sit in the slow
//! mode, so no choice of blocks within a run removes it. Over a 120 s
//! trace taken in 1 to 6 s windows, the router's time per byte spread
//! 22-31% (quartile distance over median); its ratio to the kernel below
//! spread 4-6%, to eight independent integer chains 10%, and to a
//! heap-free formatting loop 7-9%. The kernel uses nothing of the
//! program, so it slows with the host and not with a change under test.
//!
//! So the loops run the kernel every [`CAL_EVERY`] seconds between
//! blocks, and every timing is scaled to reference speed: divided by
//! the host factor, the kernel's time around that moment over
//! [`CAL_REF_NS`]. Scaled, 30 s runs of `xmlrpc-route` spread about
//! 6-10% between seeds where unscaled ones spread 24%.

use crate::stats::{self, Block};
use std::hint::black_box;
use std::time::Instant;

/// Seconds between calibrations.
const CAL_EVERY: f64 = 0.25;
/// The kernel's time at reference speed: its fast-mode time on a
/// 2-vCPU KVM guest of an Intel Xeon with AVX-512.
pub const CAL_REF_NS: f64 = 1_300_000.0;
/// Kernel iterations timed per calibration, and run untimed before.
const ROUNDS: u64 = 20_000;
const WARM_ROUNDS: u64 = 2_000;
/// Calibrations around a moment whose median gives its factor.
const NEAREST: usize = 4;

/// The calibration kernel: allocation churn, the work whose slowdown
/// tracked the router's best (the router allocates per message too).
/// `rounds` iterations of: allocate a vector of 16 to 1039 bytes, fill
/// it, and format a short string.
fn kernel(rounds: u64) -> u64 {
    let mut keep = 0u64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for k in 0..rounds {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let n = 16 + (x >> 54) as usize;
        let mut v: Vec<u8> = Vec::with_capacity(n);
        v.resize(n, k as u8);
        let s = format!("{k}x");
        keep = keep.wrapping_add(black_box(v).len() as u64 + s.len() as u64);
    }
    keep
}

/// The calibrations of one run.
#[derive(Debug)]
pub struct Host {
    /// When each calibration ran, and its kernel time in ns.
    cals: Vec<(Instant, f64)>,
}

impl Host {
    /// A host clock with one calibration taken.
    pub fn new() -> Host {
        let mut host = Host { cals: Vec::new() };
        host.calibrate();
        host
    }

    /// Run the kernel once and record its time. An untimed warm-up
    /// first puts the allocator back in the kernel's own steady state:
    /// without it, the first calibration after a set-up had freed a
    /// tagger and a server ran up to three times as slow.
    pub fn calibrate(&mut self) {
        black_box(kernel(WARM_ROUNDS));
        let t0 = Instant::now();
        black_box(kernel(ROUNDS));
        let ns = t0.elapsed().as_secs_f64() * 1e9;
        self.cals.push((t0, ns));
    }

    /// Is a calibration due?
    pub fn due(&self) -> bool {
        self.cals.last().is_none_or(|(t, _)| t.elapsed().as_secs_f64() >= CAL_EVERY)
    }

    /// The host factor at `at`: the median kernel time of the
    /// calibrations nearest to it, over [`CAL_REF_NS`]. Above 1 the
    /// host is slower than the reference.
    pub fn factor_at(&self, at: Instant) -> f64 {
        let i = self.cals.partition_point(|(t, _)| *t < at);
        let lo = i.saturating_sub(NEAREST / 2);
        let hi = (lo + NEAREST).min(self.cals.len());
        let lo = hi.saturating_sub(NEAREST);
        let near: Vec<f64> = self.cals[lo..hi].iter().map(|(_, ns)| *ns).collect();
        stats::median(&near) / CAL_REF_NS
    }

    /// The factor at each block's midpoint.
    pub fn block_factors(&self, blocks: &[Block]) -> Vec<f64> {
        blocks
            .iter()
            .map(|b| self.factor_at(b.start + std::time::Duration::from_secs_f64(b.secs / 2.0)))
            .collect()
    }

    /// The median factor over the whole run.
    pub fn median_factor(&self) -> f64 {
        let all: Vec<f64> = self.cals.iter().map(|(_, ns)| *ns).collect();
        stats::median(&all) / CAL_REF_NS
    }

    /// The calibrations taken.
    pub fn count(&self) -> usize {
        self.cals.len()
    }
}
