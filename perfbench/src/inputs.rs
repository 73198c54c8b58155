//! Seeded inputs for the three workloads, and their reference outputs.
//!
//! Every pool is a pure function of the seed. The serve pools carry,
//! per frame, the Ack body the server must return: the events of the
//! `ScalarEngine` reference run over that frame, encoded with
//! `encode_events`. The reference is computed once per distinct frame,
//! never with the engine under test.

use cfg_server::frame::{encode_events, encode_frame};
use cfg_server::FrameKind;
use cfg_tagger::TokenTagger;
use cfg_xmlrpc::{Port, Router, WorkloadGenerator};

/// XML-RPC messages per pool: about 18 MB, far past the 2 MiB per-core L2.
pub const XMLRPC_POOL: usize = 96 * 1024;
/// Share of XML-RPC messages that smuggle a decoy service name.
pub const XMLRPC_ADVERSARIAL: f64 = 0.10;
/// JSON documents per pool: about 7 MB of payload.
pub const JSON_POOL: usize = 32 * 1024;
/// Key-value frames per pool: 8 MiB of payload.
pub const KV_POOL: usize = 128;
/// Upper bound on one key-value frame's payload.
pub const KV_FRAME: usize = 64 * 1024;
/// Share of key-value lines that are malformed.
pub const KV_MALFORMED: f64 = 0.02;

/// SplitMix64: a tiny seeded generator, so the inputs depend on the
/// seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `salt` separates streams of one seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
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

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// The XML-RPC pool: message bytes and the port each must reach.
pub struct RoutePool {
    /// Message bytes, one entry per message.
    pub messages: Vec<Vec<u8>>,
    /// The port of each message's ground-truth method.
    pub expected: Vec<Port>,
}

impl RoutePool {
    /// `n` messages from the crate's generator: full value set, with
    /// [`XMLRPC_ADVERSARIAL`] decoys.
    pub fn generate(seed: u64, n: usize) -> RoutePool {
        let batch = WorkloadGenerator::new(seed).with_full_values().batch(n, XMLRPC_ADVERSARIAL);
        let expected = batch.iter().map(|m| Router::port_for(&m.method)).collect();
        RoutePool { messages: batch.into_iter().map(|m| m.bytes).collect(), expected }
    }
}

/// A serve pool: wire-encoded `Data` frames and the Ack body each must
/// get back.
pub struct ServePool {
    /// `[kind][len][payload]` wire bytes, ready to write.
    pub wire: Vec<Vec<u8>>,
    /// Per frame: `encode_events` of the reference events.
    pub expected: Vec<Vec<u8>>,
    /// Per frame: reference event count.
    pub events: Vec<usize>,
}

impl ServePool {
    /// Encode `payloads` as frames and compute their reference Acks
    /// with `reference`'s scalar engine.
    pub fn build(payloads: Vec<Vec<u8>>, reference: &TokenTagger) -> ServePool {
        let mut pool = ServePool { wire: Vec::new(), expected: Vec::new(), events: Vec::new() };
        for payload in payloads {
            let events = reference_events(reference, &payload);
            pool.events.push(events.len());
            pool.expected.push(encode_events(&events));
            pool.wire.push(encode_frame(FrameKind::Data, &payload).expect("pool frames fit"));
        }
        pool
    }

    /// The payload of frame `i`.
    pub fn payload(&self, i: usize) -> &[u8] {
        &self.wire[i][cfg_server::frame::HEADER_LEN..]
    }

    /// Total payload bytes.
    pub fn bytes(&self) -> usize {
        (0..self.wire.len()).map(|i| self.payload(i).len()).sum()
    }

    /// Count of distinct payloads (the generators may repeat one).
    pub fn distinct(&self) -> usize {
        let mut seen: Vec<&[u8]> = (0..self.wire.len()).map(|i| self.payload(i)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

/// Tag `input` with a fresh scalar reference engine.
pub fn reference_events(tagger: &TokenTagger, input: &[u8]) -> Vec<cfg_tagger::TagEvent> {
    let mut engine = tagger.scalar_engine();
    let mut events = Vec::new();
    engine.feed_into(input, &mut events);
    engine.finish_into(&mut events);
    events
}

const WORDS: [&str; 16] = [
    "alpha", "bravo", "cargo", "delta", "echo", "fjord", "gamma", "harbor", "index", "jolt",
    "kilo", "lumen", "metro", "nexus", "orbit", "pixel",
];
const KEYS: [&str; 12] = [
    "id", "name", "tags", "price", "active", "meta", "owner", "score", "items", "note", "region",
    "ts",
];

/// `n` small JSON documents (about 220 B each) in the `json()`
/// builtin's subset: objects, arrays, spaced strings, numbers with
/// fractions and exponents, and the three literals.
pub fn json_docs(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 1);
    (0..n)
        .map(|_| {
            let mut s = String::new();
            json_object(&mut rng, &mut s, 2);
            s.into_bytes()
        })
        .collect()
}

fn json_object(rng: &mut Rng, s: &mut String, depth: usize) {
    s.push('{');
    let members = if depth == 2 { 7 + rng.below(4) } else { 1 + rng.below(3) };
    for i in 0..members {
        if i > 0 {
            s.push_str(", ");
        }
        s.push('"');
        s.push_str(rng.pick(&KEYS));
        s.push_str("\": ");
        json_value(rng, s, depth);
    }
    s.push('}');
}

fn json_value(rng: &mut Rng, s: &mut String, depth: usize) {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => s.push_str(&(rng.below(200_000) as i64 - 100_000).to_string()),
        1 => s.push_str(&format!("{}.{:02}e{}", rng.below(1000), rng.below(100), rng.below(9))),
        2 => {
            s.push('"');
            for w in 0..1 + rng.below(3) {
                if w > 0 {
                    s.push(' ');
                }
                s.push_str(rng.pick(&WORDS));
            }
            s.push('"');
        }
        3 => s.push_str(rng.pick(&["true", "false", "null"])),
        4 => s.push_str(&rng.below(100).to_string()),
        5 => {
            s.push('[');
            for i in 0..1 + rng.below(4) {
                if i > 0 {
                    s.push_str(", ");
                }
                json_value(rng, s, depth - 1);
            }
            s.push(']');
        }
        _ => json_object(rng, s, depth - 1),
    }
}

const VALUE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789./:";
const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// `n` key-value frames for the `key_value()` builtin, each at most
/// [`KV_FRAME`] bytes of `key=value;` lines. A `malformed` share of the
/// lines breaks the grammar (missing `=`, a byte outside `VALUE`, or a
/// missing `;`), so only §5.2 error recovery keeps the stream live.
pub fn kv_frames(seed: u64, n: usize, malformed: f64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 2);
    (0..n)
        .map(|_| {
            let mut frame = Vec::with_capacity(KV_FRAME);
            let mut line = Vec::new();
            loop {
                line.clear();
                kv_line(&mut rng, &mut line, malformed);
                if frame.len() + line.len() > KV_FRAME {
                    return frame;
                }
                frame.extend_from_slice(&line);
            }
        })
        .collect()
}

fn kv_line(rng: &mut Rng, line: &mut Vec<u8>, malformed: f64) {
    let fault = if rng.chance(malformed) { 1 + rng.below(3) } else { 0 };
    line.push(KEY_CHARS[rng.below(26)]);
    for _ in 0..2 + rng.below(10) {
        line.push(KEY_CHARS[rng.below(KEY_CHARS.len())]);
    }
    line.push(if fault == 1 { b' ' } else { b'=' });
    let len = 2 + rng.below(18);
    for i in 0..len {
        line.push(if fault == 2 && i == len / 2 {
            b'#'
        } else {
            VALUE_CHARS[rng.below(VALUE_CHARS.len())]
        });
    }
    if fault != 3 {
        line.push(b';');
    }
    line.push(b'\n');
}
