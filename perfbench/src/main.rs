//! The repository benchmark: three closed-loop workloads over the
//! tagger's public API, timed in equal-work blocks.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <xmlrpc-route|json-serve|kv-bulk-serve> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it replays the same seeded frames in-process through the
//! public stage functions and reports per-layer metrics. Either way the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A run whose inputs fall below the workload's liveness floor, or whose
//! statistics lack samples, exits non-zero without that line.

mod host;
mod inputs;
mod route;
mod serve;
mod stats;
mod trace;

use std::time::Instant;

/// Set-ups before the timed loop.
const SETUP_FIRST: usize = 5;
/// Seconds between the set-ups taken during the timed loop.
const SETUP_EVERY: f64 = 0.5;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §4 router in-process: engine construction and the kernel.
    XmlrpcRoute,
    /// Small JSON documents over TCP: per-frame serving cost.
    JsonServe,
    /// 64 KiB key-value frames over TCP: kernel, resync and ack volume.
    KvBulkServe,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "xmlrpc-route" => Some(Workload::XmlrpcRoute),
            "json-serve" => Some(Workload::JsonServe),
            "kv-bulk-serve" => Some(Workload::KvBulkServe),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and answered wrongly or not at all.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The end-to-end report of an untraced run.
pub fn end_to_end_report(
    attempted: u64,
    failed: u64,
    summary: stats::Summary,
    setup_s: f64,
    rss_mb: f64,
) -> Result<Report, String> {
    let mut report = Report { attempted, failed, metrics: Vec::new() };
    report.metric("throughput_mb_s", summary.throughput_mb_s, "MB/s");
    report.metric("latency_p50_us", summary.p50_us, "us");
    report.metric("latency_p99_us", summary.p99_us?, "us");
    let completed = (attempted - failed) as f64 / attempted.max(1) as f64;
    report.metric("completed_frac", completed, "ratio");
    report.metric("setup_s", setup_s, "s");
    report.metric("rss_mb", rss_mb, "MB");
    Ok(report)
}

/// Median set-up times.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// `Grammar::parse`, ms.
    pub parse_ms: f64,
    /// `TokenTagger::compile`, ms.
    pub compile_ms: f64,
    /// `RouterTables::new` or `IngestServer::start`, ms.
    pub start_ms: f64,
    /// The whole set-up, s: the median of the per-set-up sums.
    pub total_s: f64,
}

/// A set-up the timed loop may run between its blocks.
pub trait SetupRep {
    /// Is a set-up due?
    fn due(&self) -> bool;
    /// Run one set-up and tear it down again.
    fn rep(&mut self) -> Result<(), String>;
}

/// What a timed loop runs between its blocks: due set-ups and host
/// calibrations.
pub struct Between<'a> {
    /// The workload's repeated set-ups.
    pub setups: &'a mut dyn SetupRep,
    /// The run's host calibrations.
    pub host: &'a mut host::Host,
}

impl Between<'_> {
    /// Is either due?
    pub fn due(&self) -> bool {
        self.setups.due() || self.host.due()
    }

    /// Run whichever is due. The calibration goes first: right after a
    /// set-up has torn down a server, the kernel ran up to twice as slow.
    pub fn run(&mut self) -> Result<(), String> {
        if self.host.due() {
            self.host.calibrate();
        }
        if self.setups.due() {
            self.setups.rep()?;
        }
        Ok(())
    }
}

/// Repeated set-ups: [`SETUP_FIRST`] before the timed loop, then one
/// every [`SETUP_EVERY`] seconds between its blocks, so that their
/// median spans the host's speed modes rather than one moment of them.
/// `build` returns what it built and the seconds its parse, compile and
/// start stages took; `dispose` tears a build down.
pub struct Setups<T, B, D> {
    build: B,
    dispose: D,
    /// When each set-up started, and its stage seconds.
    reps: Vec<(Instant, [f64; 3])>,
    _built: std::marker::PhantomData<T>,
}

impl<T, B, D> Setups<T, B, D>
where
    B: FnMut() -> Result<(T, [f64; 3]), String>,
    D: FnMut(T),
{
    /// No set-ups yet.
    pub fn new(build: B, dispose: D) -> Self {
        Setups { build, dispose, reps: Vec::new(), _built: std::marker::PhantomData }
    }

    fn once(&mut self) -> Result<T, String> {
        let at = Instant::now();
        let (built, secs) = (self.build)()?;
        self.reps.push((at, secs));
        Ok(built)
    }

    /// The set-ups before the loop; returns the last build, which the
    /// loop runs on.
    pub fn first(&mut self) -> Result<T, String> {
        let mut built = self.once()?;
        for _ in 1..SETUP_FIRST {
            let next = self.once()?;
            (self.dispose)(std::mem::replace(&mut built, next));
        }
        Ok(built)
    }

    /// Medians over every set-up so far, each scaled to reference
    /// speed by the host factor at its time.
    pub fn summary(&self, host: &host::Host) -> Setup {
        let scaled: Vec<[f64; 3]> =
            self.reps.iter().map(|(at, secs)| secs.map(|s| s / host.factor_at(*at))).collect();
        let ms = |i: usize| stats::median(&scaled.iter().map(|s| s[i]).collect::<Vec<_>>()) * 1e3;
        Setup {
            parse_ms: ms(0),
            compile_ms: ms(1),
            start_ms: ms(2),
            total_s: stats::median(&scaled.iter().map(|s| s.iter().sum()).collect::<Vec<_>>()),
        }
    }
}

impl<T, B, D> SetupRep for Setups<T, B, D>
where
    B: FnMut() -> Result<(T, [f64; 3]), String>,
    D: FnMut(T),
{
    fn due(&self) -> bool {
        self.reps.last().is_none_or(|(at, _)| at.elapsed().as_secs_f64() >= SETUP_EVERY)
    }

    fn rep(&mut self) -> Result<(), String> {
        let built = self.once()?;
        (self.dispose)(built);
        Ok(())
    }
}

/// Seconds since `t`, then restart `t`.
pub fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let secs = now.duration_since(*t).as_secs_f64();
    *t = now;
    secs
}

/// Resident set size and its peak so far, KiB, from `/proc/self/status`.
pub fn rss_kb() -> Result<(u64, u64), String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .ok_or_else(|| format!("no {name} in /proc/self/status"))
    };
    Ok((field("VmRSS:")?, field("VmHWM:")?))
}

/// Peak resident growth since `baseline_kb`, in MB (10^6 bytes).
pub fn rss_growth_mb(baseline_kb: u64) -> Result<f64, String> {
    let (_, peak) = rss_kb()?;
    Ok(peak.saturating_sub(baseline_kb) as f64 * 1024.0 / 1e6)
}

/// An empty sample buffer whose `cap` slots are already resident, so
/// filling it does not count as the program's memory growth.
pub fn resident_samples(cap: usize) -> Vec<u32> {
    let mut v = vec![1u32; cap];
    v.clear();
    v
}

/// The per-layer metrics every traced run reports, zero where a layer
/// is not on the workload's path.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("grammar.parse_ms", "ms"),
    ("tagger.compile_ms", "ms"),
    ("tagger.positions", "count"),
    ("tagger.bitset_words", "count"),
    ("server.start_ms", "ms"),
    ("tagger.engine_new_ns", "ns"),
    ("tagger.feed_ns_per_byte", "ns/B"),
    ("tagger.finish_ns", "ns"),
    ("tagger.events_per_kb", "events/KB"),
    ("tagger.live_positions_per_byte", "count/B"),
    ("tagger.dead_byte_frac", "ratio"),
    ("xmlrpc.route_ns", "ns"),
    ("xmlrpc.route_overhead_ns", "ns"),
    ("server.frame_decode_ns", "ns"),
    ("server.ack_encode_ns_per_event", "ns/event"),
    ("server.ack_bytes_per_input_byte", "B/B"),
    ("server.ack_decode_ns_per_event", "ns/event"),
    ("tagger.shard_handoff_us", "us"),
    ("server.client_send_us", "us"),
    ("server.client_wait_us", "us"),
    ("server.residual_us", "us"),
    ("host.slow_block_frac", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Build a traced run's report from measured `(name, value)` pairs:
/// every [`PER_LAYER`] metric in order, zero where not measured.
pub fn per_layer_report(attempted: u64, failed: u64, measured: &[(&str, f64)]) -> Report {
    let mut report = Report { attempted, failed, metrics: Vec::new() };
    for (name, unit) in PER_LAYER {
        let value = measured.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
        report.metric(name, value, unit);
    }
    report
}

/// Per-layer metrics of the tagger that every workload shares: compile
/// counts and an untimed byte-wise pass over up to `max_bytes` of
/// `frames` with fresh engines, reading `BitEngine::active_positions`
/// and liveness after every byte.
pub fn tagger_counts<'a>(
    tagger: &cfg_tagger::TokenTagger,
    frames: impl Iterator<Item = &'a [u8]>,
    max_bytes: usize,
) -> [(&'static str, f64); 4] {
    let (mut bytes, mut live, mut dead) = (0u64, 0u64, 0u64);
    let mut events = Vec::new();
    for frame in frames {
        if bytes as usize >= max_bytes {
            break;
        }
        let mut engine = tagger.fast_engine();
        for &b in frame {
            engine.feed_into(&[b], &mut events);
            live += engine.active_positions() as u64;
            dead += u64::from(engine.is_dead());
        }
        engine.finish_into(&mut events);
        events.clear();
        bytes += frame.len() as u64;
    }
    let tables = tagger.bit_tables();
    [
        ("tagger.positions", tables.position_count() as f64),
        ("tagger.bitset_words", tables.mask_words() as f64),
        ("tagger.live_positions_per_byte", live as f64 / bytes.max(1) as f64),
        ("tagger.dead_byte_frac", dead as f64 / bytes.max(1) as f64),
    ]
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <xmlrpc-route|json-serve|kv-bulk-serve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload {
        Workload::XmlrpcRoute => route::run(args.seed, args.seconds, args.trace),
        kind => serve::run(kind, args.seed, args.seconds, args.trace),
    };
    match report.and_then(|r| r.to_json()) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric a run prints is listed, with the same unit, in the
    /// repository's `BENCHMARK.json`.
    #[test]
    fn metrics_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let summary = stats::Summary {
            throughput_mb_s: 1.0,
            p50_us: 1.0,
            p99_us: Ok(1.0),
            samples: 1,
            blocks: 1,
            slow_block_frac: 0.0,
        };
        let e2e = end_to_end_report(1, 0, summary, 1.0, 1.0).unwrap();
        let traced = per_layer_report(1, 0, &[]);
        for (name, _, unit) in e2e.metrics.iter().chain(&traced.metrics) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches("\"unit\"").count(), e2e.metrics.len() + traced.metrics.len());
    }
}
