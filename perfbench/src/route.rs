//! `xmlrpc-route`: the paper's §4 content router, run in-process.
//!
//! One caller routes seeded XML-RPC messages through `Router::route`,
//! which builds a fresh engine per message. Engine construction and the
//! kernel do all the work; no serving layer is involved.

use crate::host::Host;
use crate::inputs::{reference_events, RoutePool, XMLRPC_POOL};
use crate::stats::{self, Block};
use crate::trace::{self, Marks, Replayer, Spans};
use crate::{lap, Between, Report, Setups};
use cfg_tagger::{EngineKind, TaggerOptions, TokenTagger};
use cfg_xmlrpc::{xmlrpc_grammar, Router, RouterTables};
use std::hint::black_box;
use std::time::Instant;

/// Messages per timed block (about 100 KB).
const BLOCK: usize = 512;
/// Liveness floor, events per KiB.
const FLOOR: f64 = 60.0;
/// Messages the liveness count and the byte-wise pass look at.
const SAMPLE: usize = 4096;
/// Upper bound on messages routed per second, for the sample buffer.
const MAX_RATE: f64 = 250_000.0;

/// Route `pool` messages in blocks for `seconds`; latency samples go to
/// `lat`, and due set-ups and calibrations run between blocks.
fn route_loop(
    tagger: &TokenTagger,
    tables: &RouterTables,
    pool: &RoutePool,
    seconds: f64,
    lat: &mut Vec<u32>,
    between: &mut Between<'_>,
) -> Result<(Vec<Block>, u64, u64), String> {
    let mut blocks = Vec::with_capacity(lat.capacity() / BLOCK);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut next = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds && lat.len() + BLOCK <= lat.capacity() {
        between.run()?;
        let first = lat.len();
        let (mut bytes, mut good) = (0u64, 0u64);
        let t0 = Instant::now();
        for _ in 0..BLOCK {
            let msg = &pool.messages[next];
            let s = Instant::now();
            let port = Router::route(tagger, tables, black_box(msg));
            lat.push(trace::ns(s, Instant::now()));
            attempted += 1;
            bytes += msg.len() as u64;
            if port == pool.expected[next] {
                good += msg.len() as u64;
            } else {
                failed += 1;
            }
            next = (next + 1) % pool.messages.len();
        }
        let secs = t0.elapsed().as_secs_f64();
        blocks.push(Block { start: t0, secs, bytes, good_bytes: good, first, end: lat.len() });
    }
    between.host.calibrate();
    Ok((blocks, attempted, failed))
}

/// The replay: a fresh engine's stages, then the whole route call.
struct RouteReplay<'a> {
    tagger: &'a TokenTagger,
    tables: &'a RouterTables,
    pool: &'a RoutePool,
    events: Vec<cfg_tagger::TagEvent>,
}

const STAGES: [Option<&str>; 5] = [
    Some("tagger.engine_new"),
    Some("tagger.feed_slice"),
    Some("tagger.finish_into"),
    None,
    Some("xmlrpc.route"),
];

impl Replayer for RouteReplay<'_> {
    fn frames(&self) -> usize {
        self.pool.messages.len()
    }

    fn bytes(&self, idx: usize) -> u64 {
        self.pool.messages[idx].len() as u64
    }

    fn stages(&self) -> &'static [Option<&'static str>] {
        &STAGES
    }

    fn replay<K: Marks>(&mut self, idx: usize, marks: &mut K) -> Result<bool, String> {
        let msg = &self.pool.messages[idx];
        self.events.clear();
        marks.mark(0);
        let mut engine = self.tagger.engine(EngineKind::default()).map_err(|e| e.to_string())?;
        marks.mark(1);
        engine.feed_slice(black_box(msg), &mut self.events).map_err(|e| e.to_string())?;
        marks.mark(2);
        engine.finish_into(&mut self.events).map_err(|e| e.to_string())?;
        marks.mark(3);
        black_box(&self.events);
        drop(engine);
        marks.mark(4);
        let port = Router::route(self.tagger, self.tables, black_box(msg));
        marks.mark(5);
        Ok(port == self.pool.expected[idx])
    }
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let pool = RoutePool::generate(seed, XMLRPC_POOL);
    let reference = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default())
        .map_err(|e| format!("compiling the reference tagger: {e}"))?;
    let sample = &pool.messages[..SAMPLE.min(pool.messages.len())];
    let events: usize = sample.iter().map(|m| reference_events(&reference, m).len()).sum();
    let sample_bytes: usize = sample.iter().map(Vec::len).sum();
    let events_per_kb = stats::events_per_kb(events, sample_bytes);
    stats::check_liveness(events_per_kb, FLOOR)?;
    let loop_secs = if traced { seconds * 0.5 } else { seconds };
    let mut lat = crate::resident_samples((loop_secs * MAX_RATE) as usize + BLOCK);
    let (baseline_kb, _) = crate::rss_kb()?;

    let mut setups = Setups::new(
        || {
            let mut t = Instant::now();
            let grammar = xmlrpc_grammar();
            let parse = lap(&mut t);
            let tagger = TokenTagger::compile(&grammar, TaggerOptions::default())
                .map_err(|e| format!("compile: {e}"))?;
            let compile = lap(&mut t);
            let tables = RouterTables::new(&tagger).ok_or("no methodName STRING token")?;
            let start = lap(&mut t);
            Ok(((tagger, tables), [parse, compile, start]))
        },
        drop,
    );
    let mut host = Host::new();
    let (tagger, tables) = setups.first()?;
    let (blocks, attempted, failed) = route_loop(
        &tagger,
        &tables,
        &pool,
        loop_secs,
        &mut lat,
        &mut Between { setups: &mut setups, host: &mut host },
    )?;
    let rss_mb = crate::rss_growth_mb(baseline_kb)?;
    let setup = setups.summary(&host);
    let summary = stats::summarize(&blocks, &host.block_factors(&blocks), &lat)?;
    let raw = stats::summarize(&blocks, &vec![1.0; blocks.len()], &lat)?;
    let pool_bytes: usize = pool.messages.iter().map(Vec::len).sum();
    println!(
        "xmlrpc-route seed {seed}: pool {} messages, {:.1} MB, repeat share {:.3}; {} blocks of \
         {BLOCK}, {:.3} slow; {} latency samples; {events_per_kb:.1} events/KB (floor {FLOOR}); \
         host factor {:.3} over {} calibrations, unscaled {:.2} MB/s p50 {:.2} us",
        pool.messages.len(),
        pool_bytes as f64 / 1e6,
        1.0 - pool.messages.len().min(attempted as usize) as f64 / attempted.max(1) as f64,
        summary.blocks,
        summary.slow_block_frac,
        summary.samples,
        host.median_factor(),
        host.count(),
        raw.throughput_mb_s,
        raw.p50_us,
    );

    if !traced {
        return crate::end_to_end_report(attempted, failed, summary, setup.total_s, rss_mb);
    }

    let mut spans = Spans::new(Instant::now());
    let mut replayer =
        RouteReplay { tagger: &tagger, tables: &tables, pool: &pool, events: Vec::new() };
    let run = trace::replay(&mut replayer, seconds * 0.4, BLOCK, &mut spans, &mut host)?;
    let rows = run.fast_rows();
    let bytes: f64 = rows.iter().map(|(i, _)| pool.messages[*i].len() as f64).sum();
    let overhead: Vec<f64> =
        rows.iter().map(|(_, m)| f64::from(m[5]) - f64::from(m[4]) - f64::from(m[3])).collect();
    let route_mean = trace::stage_total(&rows, 4, 5) / rows.len().max(1) as f64;
    trace::print_shares(
        "xmlrpc-route",
        &rows,
        &[("engine_new", 0, 1), ("feed_slice", 1, 2), ("finish_into", 2, 3)],
        route_mean,
    );
    let counts = crate::tagger_counts(&tagger, sample.iter().map(Vec::as_slice), usize::MAX);
    let mut measured = vec![
        ("grammar.parse_ms", setup.parse_ms),
        ("tagger.compile_ms", setup.compile_ms),
        ("tagger.engine_new_ns", trace::stage_median(&rows, 0, 1)),
        ("tagger.feed_ns_per_byte", trace::stage_total(&rows, 1, 2) / bytes),
        ("tagger.finish_ns", trace::stage_median(&rows, 2, 3)),
        ("tagger.events_per_kb", events_per_kb),
        ("xmlrpc.route_ns", trace::stage_median(&rows, 4, 5)),
        ("xmlrpc.route_overhead_ns", stats::median(&overhead)),
        ("host.slow_block_frac", summary.slow_block_frac),
        ("trace.overhead_pct", run.overhead_pct()),
    ];
    measured.extend(counts);
    let path = spans.write(&format!("spans-xmlrpc-route-{seed}.jsonl"));
    eprintln!(
        "spans: {}",
        path.map_or_else(|e| format!("not written: {e}"), |p| p.display().to_string())
    );
    Ok(crate::per_layer_report(attempted + run.attempted, failed + run.failed, &measured))
}
