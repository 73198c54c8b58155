//! Spans of the traced run, kept in memory and written out at exit.
//!
//! The spans are taken from outside, around calls into each crate's
//! public functions; a frame's stage spans share its id and name the
//! `frame` span as their parent.

use crate::host::Host;
use crate::stats::{self, Block};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Spans kept per run; later ones are counted but not stored.
const SPAN_LIMIT: usize = 30_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start: Instant,
    end: Instant,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    rows: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans { origin, rows: Vec::new(), dropped: 0 }
    }

    /// Record a span of operation `id`.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if self.rows.len() < SPAN_LIMIT {
            self.rows.push(Span { id, name, parent, start, end });
        } else {
            self.dropped += 1;
        }
    }

    /// Record a frame span and its consecutive stage spans: stage `i`
    /// runs from `marks[i]` to `marks[i + 1]`, and a `None` name skips
    /// an untimed stretch.
    pub fn record_frame(&mut self, id: u64, stages: &[Option<&'static str>], marks: &[Instant]) {
        let last = marks.len() - 1;
        self.record(id, "frame", None, marks[0], marks[last]);
        for (i, name) in stages.iter().enumerate() {
            if let Some(name) = name {
                self.record(id, name, Some("frame"), marks[i], marks[i + 1]);
            }
        }
    }

    /// Write the log as JSONL under the benchmark's `results/`
    /// directory; returns the file written.
    pub fn write(&self, file: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results"));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(file);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for s in &self.rows {
            let parent = s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        out.flush()?;
        Ok(path)
    }
}

/// Nanoseconds between two marks, saturated to `u32`.
pub fn ns(from: Instant, to: Instant) -> u32 {
    u32::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u32::MAX)
}

/// Most stage boundaries one replayed frame marks.
pub const MAX_MARKS: usize = 8;

/// Where a replayed frame's stage boundaries go: timestamps in a traced
/// block, nowhere in an untraced one.
pub trait Marks {
    /// Stage boundary `i` is reached.
    fn mark(&mut self, i: usize);
}

/// The untraced replay: marks cost nothing.
pub struct NoMarks;

impl Marks for NoMarks {
    #[inline(always)]
    fn mark(&mut self, _: usize) {}
}

impl Marks for [Instant; MAX_MARKS] {
    #[inline(always)]
    fn mark(&mut self, i: usize) {
        self[i] = Instant::now();
    }
}

/// One workload's in-process replay of its seeded frames through the
/// public stage functions.
pub trait Replayer {
    /// Frames in the pool.
    fn frames(&self) -> usize;
    /// Payload bytes of frame `idx`.
    fn bytes(&self, idx: usize) -> u64;
    /// Stage names between consecutive marks (`None`: untimed).
    fn stages(&self) -> &'static [Option<&'static str>];
    /// Replay frame `idx`, marking each stage boundary; returns whether
    /// the output was correct.
    fn replay<K: Marks>(&mut self, idx: usize, marks: &mut K) -> Result<bool, String>;
}

/// The result of a replay: untraced and traced blocks alternate, and
/// each frame of a traced block keeps its mark offsets.
#[derive(Debug, Default)]
pub struct ReplayRun {
    /// Traced blocks; their sample ranges index `rows`.
    pub traced: Vec<Block>,
    /// Untraced blocks, timed as a whole.
    pub plain: Vec<Block>,
    /// Per traced frame: pool index and mark offsets from mark 0, ns.
    pub rows: Vec<(usize, [u32; MAX_MARKS])>,
    /// Frames replayed, and how many gave a wrong output.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

/// Replay `block` frames at a time for `seconds`, alternating untraced
/// and traced blocks, recording the traced frames' spans, and
/// calibrating `host` between blocks; the result is scaled to
/// reference speed.
pub fn replay<R: Replayer>(
    r: &mut R,
    seconds: f64,
    block: usize,
    spans: &mut Spans,
    host: &mut Host,
) -> Result<ReplayRun, String> {
    let mut run = ReplayRun::default();
    let n = r.frames();
    let marks_used = r.stages().len() + 1;
    let start = Instant::now();
    let mut next = 0usize;
    let mut traced = false;
    while start.elapsed().as_secs_f64() < seconds {
        if host.due() {
            host.calibrate();
        }
        let first = run.rows.len();
        let (mut bytes, mut good) = (0u64, 0u64);
        let t0 = Instant::now();
        for _ in 0..block {
            let idx = next;
            next = (next + 1) % n;
            let ok = if traced {
                let mut marks = [t0; MAX_MARKS];
                let ok = r.replay(idx, &mut marks)?;
                let mut offs = [0u32; MAX_MARKS];
                for i in 1..marks_used {
                    offs[i] = ns(marks[0], marks[i]);
                }
                run.rows.push((idx, offs));
                spans.record_frame(run.attempted, r.stages(), &marks[..marks_used]);
                ok
            } else {
                r.replay(idx, &mut NoMarks)?
            };
            run.attempted += 1;
            bytes += r.bytes(idx);
            if ok {
                good += r.bytes(idx);
            } else {
                run.failed += 1;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let end = run.rows.len();
        let b = Block { start: t0, secs, bytes, good_bytes: good, first, end };
        if traced {
            run.traced.push(b);
        } else {
            run.plain.push(b);
        }
        traced = !traced;
    }
    host.calibrate();
    run.scale(host);
    Ok(run)
}

impl ReplayRun {
    /// Scale every block, and every traced frame's mark offsets, to
    /// reference speed.
    fn scale(&mut self, host: &Host) {
        let factors = host.block_factors(&self.traced);
        for (b, f) in self.traced.iter_mut().zip(factors) {
            b.secs /= f;
            for (_, offs) in &mut self.rows[b.first..b.end] {
                for o in offs.iter_mut() {
                    *o = (f64::from(*o) / f) as u32;
                }
            }
        }
        let factors = host.block_factors(&self.plain);
        for (b, f) in self.plain.iter_mut().zip(factors) {
            b.secs /= f;
        }
    }

    /// The traced frames of the faster half of the traced blocks.
    pub fn fast_rows(&self) -> Vec<(usize, [u32; MAX_MARKS])> {
        stats::fast_half(&self.traced)
            .into_iter()
            .flat_map(|b| self.rows[self.traced[b].first..self.traced[b].end].iter().copied())
            .collect()
    }

    /// Tracing overhead: fast-half median time per byte of the traced
    /// blocks over that of the untraced blocks, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let per_byte = |blocks: &[Block]| {
            let rates: Vec<f64> = stats::fast_half(blocks)
                .into_iter()
                .map(|i| blocks[i].secs / blocks[i].bytes.max(1) as f64)
                .collect();
            stats::median(&rates)
        };
        let plain = per_byte(&self.plain);
        (per_byte(&self.traced) - plain) / plain * 100.0
    }
}

/// Median over `rows` of the time from mark `a` to mark `b`, ns.
pub fn stage_median(rows: &[(usize, [u32; MAX_MARKS])], a: usize, b: usize) -> f64 {
    let v: Vec<f64> = rows.iter().map(|(_, m)| f64::from(m[b]) - f64::from(m[a])).collect();
    stats::median(&v)
}

/// Total over `rows` of the time from mark `a` to mark `b`, ns.
pub fn stage_total(rows: &[(usize, [u32; MAX_MARKS])], a: usize, b: usize) -> f64 {
    rows.iter().map(|(_, m)| f64::from(m[b]) - f64::from(m[a])).sum()
}

/// Print each stage's mean time per frame over `rows` and its share of
/// `whole_ns`, the time one frame costs end to end; the remainder is
/// what the replayed stages do not cover.
pub fn print_shares(
    label: &str,
    rows: &[(usize, [u32; MAX_MARKS])],
    stages: &[(&str, usize, usize)],
    whole_ns: f64,
) {
    let mut line = format!("{label}: layer shares of {:.2} us per frame:", whole_ns / 1e3);
    let mut covered = 0.0;
    for &(name, a, b) in stages {
        let mean = stage_total(rows, a, b) / rows.len().max(1) as f64;
        covered += mean;
        line += &format!(" {name} {:.2} us {:.1}%,", mean / 1e3, mean / whole_ns * 100.0);
    }
    line += &format!(" rest {:.1}%", (whole_ns - covered) / whole_ns * 100.0);
    println!("{line}");
}
