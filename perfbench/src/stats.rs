//! The harness's own statistics: nearest-rank percentiles with a tail
//! rule, fast-half block selection, and the liveness gate.
//!
//! Timing is taken in equal-work blocks, each scaled to reference speed
//! by its host factor (see [`crate::host`]). The timing metrics come
//! from the faster half of the scaled blocks. The share of blocks whose
//! unscaled time is far above the unscaled fast half is reported as a
//! diagnostic of the host.

use std::time::Instant;

/// A percentile is reported only if at least this many samples lie
/// beyond it.
pub const TAIL_SAMPLES: usize = 10;
/// A block is slow when it takes longer than this multiple of the
/// fast-half median.
pub const SLOW_FACTOR: f64 = 1.5;

/// Median of unsorted values (upper median for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// 1-based nearest rank of quantile `q` among `n` sorted samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` samples, refused
/// unless at least [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[u32], q: f64) -> Result<u32, String> {
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{} of no samples", q * 100.0));
    }
    let r = rank(n, q);
    if n - r < TAIL_SAMPLES {
        return Err(format!(
            "p{} of {n} samples leaves {} beyond it, fewer than {TAIL_SAMPLES}",
            q * 100.0,
            n - r
        ));
    }
    Ok(sorted[r - 1])
}

/// One equal-work block of a timed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// When the block started.
    pub start: Instant,
    /// Wall time of the block.
    pub secs: f64,
    /// Payload bytes of the block's operations.
    pub bytes: u64,
    /// Payload bytes answered correctly.
    pub good_bytes: u64,
    /// Where the block's per-operation samples start.
    pub first: usize,
    /// Where they end.
    pub end: usize,
}

impl Block {
    fn ns_per_byte(&self) -> f64 {
        self.secs * 1e9 / self.bytes.max(1) as f64
    }
}

/// Indices of the faster half of `blocks` (ranked by time per byte,
/// rounded up), fastest first.
pub fn fast_half(blocks: &[Block]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..blocks.len()).collect();
    idx.sort_unstable_by(|&a, &b| blocks[a].ns_per_byte().total_cmp(&blocks[b].ns_per_byte()));
    idx.truncate(blocks.len().div_ceil(2));
    idx
}

/// Share of all blocks slower than [`SLOW_FACTOR`] times the median of
/// the fast half `fast`.
pub fn slow_block_frac(blocks: &[Block], fast: &[usize]) -> f64 {
    let fast_rates: Vec<f64> = fast.iter().map(|&i| blocks[i].ns_per_byte()).collect();
    let limit = SLOW_FACTOR * median(&fast_rates);
    let slow = blocks.iter().filter(|b| b.ns_per_byte() > limit).count();
    slow as f64 / blocks.len().max(1) as f64
}

/// The timing metrics of one block loop, over its fast half.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Correct payload MB (10^6 bytes) per second.
    pub throughput_mb_s: f64,
    /// Per-operation latency percentiles, microseconds.
    pub p50_us: f64,
    /// See `p50_us`; an error when too few samples lie beyond it.
    pub p99_us: Result<f64, String>,
    /// Latency samples the percentiles were taken over.
    pub samples: usize,
    /// Blocks in the loop, and the share of them that were slow before
    /// scaling.
    pub blocks: usize,
    /// See `blocks`.
    pub slow_block_frac: f64,
}

/// Fewest blocks a loop may report from.
pub const MIN_BLOCKS: usize = 10;

/// Summarize a block loop: throughput and latency percentiles over the
/// faster half of the blocks, each block's time and samples divided by
/// its host factor. `latency_ns` holds one sample per operation,
/// indexed by the blocks' sample ranges.
pub fn summarize(blocks: &[Block], factors: &[f64], latency_ns: &[u32]) -> Result<Summary, String> {
    if blocks.len() < MIN_BLOCKS {
        return Err(format!("{} blocks measured, fewer than {MIN_BLOCKS}", blocks.len()));
    }
    let scaled: Vec<Block> =
        blocks.iter().zip(factors).map(|(b, f)| Block { secs: b.secs / f, ..*b }).collect();
    let fast = fast_half(&scaled);
    let secs: f64 = fast.iter().map(|&i| scaled[i].secs).sum();
    let good: u64 = fast.iter().map(|&i| scaled[i].good_bytes).sum();
    let mut lat: Vec<u32> = fast
        .iter()
        .flat_map(|&i| {
            let f = factors[i];
            latency_ns[blocks[i].first..blocks[i].end]
                .iter()
                .map(move |&ns| (f64::from(ns) / f) as u32)
        })
        .collect();
    lat.sort_unstable();
    Ok(Summary {
        throughput_mb_s: good as f64 / 1e6 / secs,
        p50_us: f64::from(percentile(&lat, 0.50)?) / 1e3,
        p99_us: percentile(&lat, 0.99).map(|p| f64::from(p) / 1e3),
        samples: lat.len(),
        blocks: blocks.len(),
        slow_block_frac: slow_block_frac(blocks, &fast_half(blocks)),
    })
}

/// Tag events per KiB of input.
pub fn events_per_kb(events: usize, bytes: usize) -> f64 {
    events as f64 * 1024.0 / bytes.max(1) as f64
}

/// The liveness gate: a run whose inputs yield fewer events per KiB
/// than the workload's floor posts no number, because a dead stream
/// measures nothing the tagger does.
pub fn check_liveness(events_per_kb: f64, floor: f64) -> Result<(), String> {
    if events_per_kb >= floor {
        Ok(())
    } else {
        Err(format!(
            "liveness: {events_per_kb:.1} events/KB is below the floor of {floor}; refusing to post a number"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(secs: f64, bytes: u64, first: usize, end: usize) -> Block {
        Block { start: Instant::now(), secs, bytes, good_bytes: bytes, first, end }
    }

    #[test]
    fn nearest_rank() {
        assert_eq!(rank(100, 0.5), 50);
        assert_eq!(rank(100, 0.99), 99);
        assert_eq!(rank(101, 0.99), 100);
        assert_eq!(rank(3, 0.0), 1);
        assert_eq!(rank(3, 1.0), 3);
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.5), Ok(500));
        assert_eq!(percentile(&sorted, 0.99), Ok(990));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly ten beyond it; of 999, nine.
        let thousand: Vec<u32> = (0..1000).collect();
        assert!(percentile(&thousand, 0.99).is_ok());
        assert!(percentile(&thousand[..999], 0.99).is_err());
        // The median needs only twenty samples.
        assert!(percentile(&thousand[..20], 0.5).is_ok());
        assert!(percentile(&thousand[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn fast_half_ranks_by_time_per_byte() {
        let blocks = [
            block(2.0, 100, 0, 1),
            block(1.0, 100, 1, 2),
            block(3.0, 300, 2, 3), // 1 s per 100 B: ties the second
            block(9.0, 100, 3, 4),
            block(1.5, 100, 4, 5),
        ];
        let fast = fast_half(&blocks);
        assert_eq!(fast.len(), 3);
        let mut sorted = fast.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 4]);
        // Fast-half median is 1.0 s per 100 B; 2.0 and 9.0 exceed 1.5x.
        assert!((slow_block_frac(&blocks, &fast) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn summary_uses_only_the_fast_half() {
        // Ten blocks of 1000 samples: the five slow ones carry huge
        // latencies that must not reach the percentiles.
        let mut blocks = Vec::new();
        let mut lat = Vec::new();
        for b in 0..10 {
            let slow = b % 2 == 1;
            let first = lat.len();
            lat.extend((0..1000).map(|i| if slow { 1_000_000 } else { 1000 + i }));
            blocks.push(block(if slow { 4.0 } else { 1.0 }, 1_000_000, first, lat.len()));
        }
        let ones = [1.0; 10];
        let s = summarize(&blocks, &ones, &lat).unwrap();
        assert_eq!(s.samples, 5000);
        assert!((s.throughput_mb_s - 1.0).abs() < 1e-12);
        assert!((s.p50_us - 1.499).abs() < 1e-9);
        assert!((s.p99_us.unwrap() - 1.989).abs() < 1e-9);
        assert!((s.slow_block_frac - 0.5).abs() < 1e-12);
        assert!(summarize(&blocks[..9], &ones, &lat).is_err());
        // Too few fast samples for a p99: the summary says so.
        let short: Vec<Block> = blocks.iter().map(|b| Block { end: b.first + 100, ..*b }).collect();
        assert!(summarize(&short, &ones, &lat).unwrap().p99_us.is_err());
    }

    #[test]
    fn host_factors_scale_blocks_and_samples() {
        // The slow blocks ran on a host four times slower: scaled, they
        // match the fast ones and their samples join the percentiles.
        let mut blocks = Vec::new();
        let mut lat = Vec::new();
        let mut factors = Vec::new();
        for b in 0..10 {
            let f = if b % 2 == 1 { 4.0 } else { 1.0 };
            let first = lat.len();
            lat.extend((0..1000).map(|i| ((1000 + i) as f64 * f) as u32));
            blocks.push(block(f, 1_000_000, first, lat.len()));
            factors.push(f);
        }
        let s = summarize(&blocks, &factors, &lat).unwrap();
        assert!((s.throughput_mb_s - 1.0).abs() < 1e-12);
        assert!((s.p50_us - 1.499).abs() < 1e-9);
        // Unscaled, half of the blocks were slow.
        assert!((s.slow_block_frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn liveness_refuses_below_floor() {
        assert!(check_liveness(184.0, 100.0).is_ok());
        assert!(check_liveness(100.0, 100.0).is_ok());
        let err = check_liveness(0.0, 100.0).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
        assert!((events_per_kb(3, 3072) - 1.0).abs() < 1e-12);
    }
}
