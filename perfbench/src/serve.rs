//! `json-serve` and `kv-bulk-serve`: the ingest server over TCP.
//!
//! The server runs in-process with `ServerConfig::default()`; one
//! generator thread drives one connection in a closed loop with a fixed
//! number of frames in flight, and compares every Ack byte for byte with
//! `seq ++ encode_events(reference)`.

use crate::host::Host;
use crate::inputs::{self, ServePool};
use crate::stats::{self, Block};
use crate::trace::{self, Marks, Replayer, Spans};
use crate::{lap, Between, Report, Setups, Workload};
use cfg_grammar::{builtin, Grammar};
use cfg_server::frame::{decode_events, encode_events, encode_frame, FrameReader, FrameRef};
use cfg_server::{FrameKind, IngestServer, ServerConfig};
use cfg_tagger::{EngineKind, ShardPool, TaggerOptions, TokenTagger};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the generator waits for a reply before it counts every
/// frame in flight as missing and reconnects.
const REPLY_WAIT: Duration = Duration::from_secs(5);
/// Shard handoffs timed by the traced run.
const HANDOFFS: usize = 2000;
/// Bytes the untimed byte-wise pass looks at.
const BYTE_PASS: usize = 1 << 20;

/// One serve workload's shape.
struct Shape {
    name: &'static str,
    grammar: fn() -> Grammar,
    options: fn() -> TaggerOptions,
    payloads: fn(u64) -> Vec<Vec<u8>>,
    /// Frames in flight on the connection.
    window: usize,
    /// Frames per timed block.
    block: usize,
    /// Liveness floor, events per KiB.
    floor: f64,
    /// Upper bound on frames per second, for the sample buffer.
    max_rate: f64,
}

fn shape(kind: Workload) -> Shape {
    match kind {
        Workload::JsonServe => Shape {
            name: "json-serve",
            grammar: builtin::json,
            options: TaggerOptions::default,
            payloads: |seed| inputs::json_docs(seed, inputs::JSON_POOL),
            window: 8,
            block: 512,
            floor: 200.0,
            max_rate: 100_000.0,
        },
        _ => Shape {
            name: "kv-bulk-serve",
            grammar: builtin::key_value,
            options: || TaggerOptions::builder().error_recovery(true).build(),
            payloads: |seed| inputs::kv_frames(seed, inputs::KV_POOL, inputs::KV_MALFORMED),
            window: 2,
            block: 8,
            floor: 100.0,
            max_rate: 2_000.0,
        },
    }
}

/// A frame on the wire, waiting for its reply.
struct InFlight {
    /// Frame number within the run, the id of its spans.
    op: u64,
    seq: u32,
    idx: usize,
    sent: Instant,
}

/// The generator's end of one connection.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
    next_seq: u32,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_WAIT))?;
        Ok(Conn { stream, reader: FrameReader::new(), buf: vec![0; 256 * 1024], next_seq: 0 })
    }

    fn send(&mut self, wire: &[u8]) -> std::io::Result<u32> {
        self.stream.write_all(wire)?;
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        Ok(seq)
    }

    /// Wait for the next server frame and hand it to `f`.
    fn recv_with<R>(&mut self, f: impl FnOnce(FrameRef<'_>) -> R) -> Result<R, String> {
        loop {
            if let Some(frame) = self.reader.next_frame().map_err(|e| e.to_string())? {
                return Ok(f(frame));
            }
            let n = self.stream.read(&mut self.buf).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.reader.push(&self.buf[..n]);
        }
    }
}

/// Is `frame` the right answer to `f`?
fn answer_ok(frame: FrameRef<'_>, f: &InFlight, pool: &ServePool) -> bool {
    frame.kind == FrameKind::Ack
        && frame.payload.len() >= 4
        && frame.payload[..4] == f.seq.to_le_bytes()
        && frame.payload[4..] == pool.expected[f.idx][..]
}

/// Client-side spans of the traced run's serving phase.
struct ClientTrace {
    spans: Spans,
    send_ns: Vec<u32>,
    wait_ns: Vec<u32>,
}

/// Counters of one closed loop.
#[derive(Default)]
struct LoopOut {
    blocks: Vec<Block>,
    attempted: u64,
    failed: u64,
}

/// Drive the closed loop for `seconds`: `window` frames in flight,
/// `block` completions per timed block, one latency sample per frame.
/// Due set-ups and calibrations run between blocks, once the frames in
/// flight are answered, so no sample waits on them.
fn serve_loop(
    addr: SocketAddr,
    pool: &ServePool,
    shape: &Shape,
    seconds: f64,
    lat: &mut Vec<u32>,
    between: &mut Between<'_>,
    mut client: Option<&mut ClientTrace>,
) -> Result<LoopOut, String> {
    let mut out =
        LoopOut { blocks: Vec::with_capacity(lat.capacity() / shape.block), ..LoopOut::default() };
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(shape.window);
    let mut next = 0usize;
    let mut op = 0u64;
    let start = Instant::now();
    let mut measuring = true;
    let mut pause = false;
    while measuring || !inflight.is_empty() {
        if pause && inflight.is_empty() {
            between.run()?;
            pause = false;
        }
        measuring =
            start.elapsed().as_secs_f64() < seconds && lat.len() + shape.block <= lat.capacity();
        // A block is timed only while frames are being sent; otherwise
        // this pass just drains the frames in flight.
        let sending = measuring && !pause;
        let first = lat.len();
        let (mut bytes, mut good) = (0u64, 0u64);
        let t0 = Instant::now();
        let mut done = 0;
        while done < shape.block && (sending || !inflight.is_empty()) {
            while sending && inflight.len() < shape.window {
                let sent = Instant::now();
                let seq = conn.send(&pool.wire[next]).map_err(|e| format!("send: {e}"))?;
                if let Some(c) = client.as_deref_mut() {
                    let end = Instant::now();
                    c.send_ns.push(trace::ns(sent, end));
                    c.spans.record(op, "client.send", None, sent, end);
                }
                inflight.push_back(InFlight { op, seq, idx: next, sent });
                next = (next + 1) % pool.wire.len();
                op += 1;
            }
            let waited = Instant::now();
            let front = inflight.front().expect("a frame is in flight");
            match conn.recv_with(|frame| answer_ok(frame, front, pool)) {
                Ok(ok) => {
                    let f = inflight.pop_front().expect("a frame is in flight");
                    let end = Instant::now();
                    if let Some(c) = client.as_deref_mut() {
                        c.wait_ns.push(trace::ns(waited, end));
                        c.spans.record(f.op, "client.wait", None, waited, end);
                    }
                    let len = pool.payload(f.idx).len() as u64;
                    out.attempted += 1;
                    done += 1;
                    if sending {
                        lat.push(trace::ns(f.sent, end));
                        bytes += len;
                    }
                    if ok {
                        good += len;
                    } else {
                        out.failed += 1;
                    }
                }
                Err(e) => {
                    // A missing reply: every frame in flight counts as
                    // failed, and the loop goes on over a new session.
                    eprintln!("{}: {e}; counting {} frames as failed", shape.name, inflight.len());
                    for f in inflight.drain(..) {
                        out.attempted += 1;
                        out.failed += 1;
                        done += 1;
                        if sending {
                            lat.push(u32::MAX);
                            bytes += pool.payload(f.idx).len() as u64;
                        }
                    }
                    conn = Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                }
            }
        }
        if sending {
            let secs = t0.elapsed().as_secs_f64();
            out.blocks.push(Block {
                start: t0,
                secs,
                bytes,
                good_bytes: good,
                first,
                end: lat.len(),
            });
            pause = between.due();
        }
    }
    between.host.calibrate();
    // Close the session; the server says Bye after draining. Every
    // frame is answered by now, so a failed close costs no result.
    let close = encode_frame(FrameKind::Close, b"").expect("an empty frame fits");
    let bye = conn.send(&close).map_err(|e| e.to_string()).and_then(|_| loop {
        if conn.recv_with(|f| f.kind == FrameKind::Bye)? {
            return Ok(());
        }
    });
    if let Err(e) = bye {
        eprintln!("{}: no Bye after Close: {e}", shape.name);
    }
    Ok(out)
}

/// The replay: decode, engine, kernel, finish and Ack encode as the
/// server runs them, then the generator's Ack decode.
struct ServeReplay<'a> {
    tagger: &'a TokenTagger,
    pool: &'a ServePool,
    reader: FrameReader,
    seq: u32,
}

const STAGES: [Option<&str>; 7] = [
    Some("server.frame_decode"),
    Some("tagger.engine_new"),
    Some("tagger.feed_slice"),
    Some("tagger.finish_into"),
    Some("server.ack_encode"),
    None,
    Some("server.ack_decode"),
];

impl Replayer for ServeReplay<'_> {
    fn frames(&self) -> usize {
        self.pool.wire.len()
    }

    fn bytes(&self, idx: usize) -> u64 {
        self.pool.payload(idx).len() as u64
    }

    fn stages(&self) -> &'static [Option<&'static str>] {
        &STAGES
    }

    fn replay<K: Marks>(&mut self, idx: usize, marks: &mut K) -> Result<bool, String> {
        let err = |e: cfg_tagger::Error| e.to_string();
        marks.mark(0);
        self.reader.push(&self.pool.wire[idx]);
        let frame = self.reader.next_frame().map_err(err)?.ok_or("replayed frame incomplete")?;
        marks.mark(1);
        let mut engine = self.tagger.engine(EngineKind::default()).map_err(err)?;
        marks.mark(2);
        let mut events = Vec::new();
        engine.feed_slice(frame.payload, &mut events).map_err(err)?;
        marks.mark(3);
        engine.finish_into(&mut events).map_err(err)?;
        marks.mark(4);
        let mut ack = self.seq.to_le_bytes().to_vec();
        ack.extend_from_slice(&encode_events(&events));
        marks.mark(5);
        self.seq = self.seq.wrapping_add(1);
        let ok = ack[4..] == self.pool.expected[idx][..];
        marks.mark(6);
        let decoded = decode_events(&ack[4..]).map_err(err)?;
        marks.mark(7);
        Ok(ok && black_box(decoded).len() == events.len())
    }
}

/// Median time from `ShardPool::submit_to` to the worker's handler,
/// over [`HANDOFFS`] handoffs to an idle pool shaped like the server's.
fn shard_handoff_us(tagger: &TokenTagger) -> Result<f64, String> {
    let (tx, rx) = mpsc::sync_channel::<Instant>(1);
    let pool = ShardPool::with_handler(tagger, ServerConfig::default().shards, move |_, _| {
        let _ = tx.send(Instant::now());
    });
    let mut samples = Vec::with_capacity(HANDOFFS);
    for _ in 0..HANDOFFS {
        let t0 = Instant::now();
        pool.submit_to(0, vec![0u8; 16]);
        let t1 = rx.recv_timeout(REPLY_WAIT).map_err(|e| format!("shard handoff: {e}"))?;
        samples.push(t1.saturating_duration_since(t0).as_secs_f64() * 1e6);
    }
    pool.join();
    Ok(stats::median(&samples))
}

/// Run a serve workload.
pub fn run(kind: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let shape = shape(kind);
    let reference = TokenTagger::compile(&(shape.grammar)(), (shape.options)())
        .map_err(|e| format!("compiling the reference tagger: {e}"))?;
    let pool = ServePool::build((shape.payloads)(seed), &reference);
    let pool_bytes = pool.bytes();
    let events_per_kb = stats::events_per_kb(pool.events.iter().sum(), pool_bytes);
    stats::check_liveness(events_per_kb, shape.floor)?;
    let loop_secs = if traced { seconds * 0.5 } else { seconds };
    let mut lat = crate::resident_samples((loop_secs * shape.max_rate) as usize + shape.block);
    let (baseline_kb, _) = crate::rss_kb()?;

    let mut setups = Setups::new(
        || {
            let mut t = Instant::now();
            let grammar = (shape.grammar)();
            let parse = lap(&mut t);
            let tagger = TokenTagger::compile(&grammar, (shape.options)())
                .map_err(|e| format!("compile: {e}"))?;
            let compile = lap(&mut t);
            let server = IngestServer::start(&tagger, "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| format!("server start: {e}"))?;
            let start = lap(&mut t);
            Ok(((tagger, server), [parse, compile, start]))
        },
        |(_, server): (TokenTagger, IngestServer)| {
            server.shutdown();
        },
    );
    let mut host = Host::new();
    let (tagger, server) = setups.first()?;
    let mut client = traced.then(|| ClientTrace {
        spans: Spans::new(Instant::now()),
        send_ns: Vec::new(),
        wait_ns: Vec::new(),
    });
    let out = serve_loop(
        server.local_addr(),
        &pool,
        &shape,
        loop_secs,
        &mut lat,
        &mut Between { setups: &mut setups, host: &mut host },
        client.as_mut(),
    );
    let rss_mb = crate::rss_growth_mb(baseline_kb)?;
    let setup = setups.summary(&host);
    let report = server.shutdown();
    let out = out?;
    let summary = stats::summarize(&out.blocks, &host.block_factors(&out.blocks), &lat)?;
    let raw = stats::summarize(&out.blocks, &vec![1.0; out.blocks.len()], &lat)?;
    println!(
        "{} seed {seed}: pool {} frames ({} distinct), {:.1} MB, repeat share {:.3}; window {}; \
         {} blocks of {}, {:.3} slow; {} latency samples; {events_per_kb:.1} events/KB (floor {}); \
         server shed {}, restarts {}; host factor {:.3} over {} calibrations, unscaled {:.2} MB/s \
         p50 {:.1} us",
        shape.name,
        pool.wire.len(),
        pool.distinct(),
        pool_bytes as f64 / 1e6,
        1.0 - pool.distinct().min(out.attempted as usize) as f64 / out.attempted.max(1) as f64,
        shape.window,
        summary.blocks,
        shape.block,
        summary.slow_block_frac,
        summary.samples,
        shape.floor,
        report.shed,
        report.shard.restarts,
        host.median_factor(),
        host.count(),
        raw.throughput_mb_s,
        raw.p50_us,
    );

    let Some(client) = client else {
        return crate::end_to_end_report(out.attempted, out.failed, summary, setup.total_s, rss_mb);
    };

    let mut spans = client.spans;
    let mut replayer =
        ServeReplay { tagger: &tagger, pool: &pool, reader: FrameReader::new(), seq: 0 };
    let run = trace::replay(&mut replayer, seconds * 0.4, shape.block, &mut spans, &mut host)?;
    let rows = run.fast_rows();
    let bytes: f64 = rows.iter().map(|(i, _)| pool.payload(*i).len() as f64).sum();
    let events: f64 = rows.iter().map(|(i, _)| pool.events[*i] as f64).sum();
    let ack_bytes: usize = pool.expected.iter().map(|a| 4 + a.len()).sum();
    let stage_sum_us = trace::stage_median(&rows, 0, 5) / 1e3;
    let sample = (0..pool.wire.len()).map(|i| pool.payload(i));
    let mut measured = vec![
        ("grammar.parse_ms", setup.parse_ms),
        ("tagger.compile_ms", setup.compile_ms),
        ("server.start_ms", setup.start_ms),
        ("tagger.engine_new_ns", trace::stage_median(&rows, 1, 2)),
        ("tagger.feed_ns_per_byte", trace::stage_total(&rows, 2, 3) / bytes),
        ("tagger.finish_ns", trace::stage_median(&rows, 3, 4)),
        ("tagger.events_per_kb", events_per_kb),
        ("server.frame_decode_ns", trace::stage_median(&rows, 0, 1)),
        ("server.ack_encode_ns_per_event", trace::stage_total(&rows, 4, 5) / events),
        ("server.ack_bytes_per_input_byte", ack_bytes as f64 / pool_bytes as f64),
        ("server.ack_decode_ns_per_event", trace::stage_total(&rows, 6, 7) / events),
        ("tagger.shard_handoff_us", shard_handoff_us(&tagger)? / host.median_factor()),
        ("server.client_send_us", median_us(&client.send_ns) / host.median_factor()),
        ("server.client_wait_us", median_us(&client.wait_ns) / host.median_factor()),
        ("server.residual_us", summary.p50_us - stage_sum_us),
        ("host.slow_block_frac", summary.slow_block_frac),
        ("trace.overhead_pct", run.overhead_pct()),
    ];
    measured.extend(crate::tagger_counts(&tagger, sample, BYTE_PASS));
    // One frame's share of the serving loop's time, at its throughput.
    let frame_ns = pool_bytes as f64 / pool.wire.len() as f64 / summary.throughput_mb_s * 1e3;
    trace::print_shares(
        shape.name,
        &rows,
        &[
            ("frame_decode", 0, 1),
            ("engine_new", 1, 2),
            ("feed_slice", 2, 3),
            ("finish_into", 3, 4),
            ("ack_encode", 4, 5),
        ],
        frame_ns,
    );
    println!(
        "{}: serve p50 {:.1} us, replayed stage sum {stage_sum_us:.1} us",
        shape.name, summary.p50_us
    );
    let path = spans.write(&format!("spans-{}-{seed}.jsonl", shape.name));
    eprintln!(
        "spans: {}",
        path.map_or_else(|e| format!("not written: {e}"), |p| p.display().to_string())
    );
    Ok(crate::per_layer_report(out.attempted + run.attempted, out.failed + run.failed, &measured))
}

fn median_us(ns: &[u32]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| f64::from(n) / 1e3).collect();
    stats::median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The liveness gate refuses the key-value frames when the tagger
    /// lacks §5.2 recovery: the stream dies at its first malformed line.
    #[test]
    fn kv_frames_without_recovery_are_refused() {
        let kv = shape(Workload::KvBulkServe);
        let frames = inputs::kv_frames(7, 2, inputs::KV_MALFORMED);
        let events_per_kb = |options: TaggerOptions| {
            let tagger = TokenTagger::compile(&builtin::key_value(), options).unwrap();
            let pool = ServePool::build(frames.clone(), &tagger);
            stats::events_per_kb(pool.events.iter().sum(), pool.bytes())
        };
        let live = events_per_kb((kv.options)());
        assert!(live > 150.0, "{live}");
        assert!(stats::check_liveness(live, kv.floor).is_ok());
        let dead = events_per_kb(TaggerOptions::default());
        assert!(dead < 10.0, "{dead}");
        assert!(stats::check_liveness(dead, kv.floor).is_err());
    }
}
