//! The traced round's post-processing: wire re-parse and pool replay.
//!
//! The server's `pool` and `decode` layers run inside `Server::tick`,
//! where no outside timer reaches. The traced round captured every byte
//! the server read, per connection and tick; here those bytes are
//! parsed again with [`WireDecoder`] (timed: the `wire` numbers), every
//! frame is re-encoded with [`encode_frame`] and compared byte for byte
//! with what was captured (the format's canonical-encoding property),
//! and the sessions are replayed tick by tick into a [`MultiDecoder`]
//! built exactly as the server's admission builds them (timed: the
//! `pool` and `decode` numbers). The replay must reproduce every server
//! verdict, or its numbers would describe a different program.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use spinal_core::bits::BitVec;
use spinal_core::decode::{AwgnCost, BeamConfig};
use spinal_core::error::SpinalError;
use spinal_core::frame::{AnyTerminator, Checksum};
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::StridedPuncture;
use spinal_core::sched::{MultiConfig, MultiDecoder, SessionEvent, SessionId, SessionOutcome};
use spinal_core::session::{Poll, RxConfig};
use spinal_core::symbol::{IqSymbol, Slot};
use spinal_core::SpinalCode;
use spinal_serve::{encode_frame, Frame, Hello, ServeConfig, WireDecoder, HEADER_LEN};

use crate::trace::Capture;

type Pool = MultiDecoder<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;

/// A replayed session's verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    pub payload: Option<BitVec>,
    pub symbols_used: u64,
    pub attempts: u32,
}

/// What the re-parse and the replay measured.
#[derive(Debug, Default)]
pub struct ReplayOut {
    pub frames_in: u64,
    pub frames_out: u64,
    pub frames_checked: u64,
    pub reencode_mismatches: u64,
    pub parse_ns_per_frame: f64,
    pub encode_ns_per_frame: f64,
    pub drive_ns: u64,
    pub attempts: u64,
    pub checkpoint_peak: usize,
    pub demotions: u64,
    pub nodes_expanded: u64,
    pub hash_calls: u64,
    pub frontier_peak: usize,
    pub verdicts: HashMap<u32, Verdict>,
}

/// Frames in a capture's byte stream, parsed read by read as the
/// server parsed them. With `check`, each frame is re-encoded and
/// compared with the captured bytes; returns (frames, mismatches).
fn walk(cap: &Capture, reencode: bool, buf: &mut Vec<u8>) -> (u64, u64) {
    let mut dec = WireDecoder::new();
    let (mut frames, mut bad) = (0u64, 0u64);
    let mut prev = 0;
    let mut offset = 0;
    for &(_, end) in &cap.reads {
        dec.push_bytes(&cap.bytes[prev..end]);
        prev = end;
        loop {
            let frame = match dec.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    // The server met the same error; nothing after it
                    // was read as frames.
                    return (frames, bad + 1);
                }
            };
            frames += 1;
            if reencode {
                let len_bytes: [u8; 4] = cap.bytes[offset + 4..offset + 8]
                    .try_into()
                    .expect("a parsed frame has a full header");
                let len = HEADER_LEN + u32::from_le_bytes(len_bytes) as usize;
                buf.clear();
                if encode_frame(&frame, buf).is_err() || buf[..] != cap.bytes[offset..offset + len]
                {
                    bad += 1;
                }
                offset += len;
            } else {
                black_box(&frame);
            }
        }
    }
    (frames, bad)
}

/// Best of three timed passes over every capture, in nanoseconds.
fn time_pass(caps: &[&Capture], reencode: bool, buf: &mut Vec<u8>) -> u64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            for cap in caps {
                black_box(walk(cap, reencode, buf));
            }
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three passes")
}

/// The server's admission (`admit` in `spinal_serve::server`) for the
/// default serving profile: same code, same terminator, same receive
/// configuration.
fn admit(h: &Hello, pool: &mut Pool) -> Result<SessionId, SpinalError> {
    let profile = ServeConfig::default().profile;
    let params = CodeParams::builder()
        .message_bits(h.message_bits)
        .k(h.k)
        .seed(h.seed)
        .build()?;
    let code = SpinalCode::new(
        params,
        Lookup3::new(h.seed),
        LinearMapper::new(h.c),
        StridedPuncture::with_order(profile.stride, profile.order)?,
    );
    let rx = code.rx_session(
        AwgnCost,
        AnyTerminator::crc(Checksum::Crc16),
        RxConfig {
            beam: BeamConfig::with_beam(h.beam as usize),
            max_symbols: h.max_symbols,
            attempt_growth: 1.0,
        },
    )?;
    pool.insert(rx)
}

/// Re-parses and replays the captures of one traced round.
pub fn run(ingress: &[Capture], egress: &[Capture]) -> ReplayOut {
    let mut out = ReplayOut::default();
    let mut buf = Vec::new();

    // Wire: counts, canonical re-encoding, then timing.
    for cap in ingress {
        let (n, bad) = walk(cap, true, &mut buf);
        out.frames_in += n;
        out.reencode_mismatches += bad;
    }
    for cap in egress {
        let (n, bad) = walk(cap, true, &mut buf);
        out.frames_out += n;
        out.reencode_mismatches += bad;
    }
    out.frames_checked = out.frames_in + out.frames_out;
    let all: Vec<&Capture> = ingress.iter().chain(egress).collect();
    let parse_ns = time_pass(&all, false, &mut buf);
    let both_ns = time_pass(&all, true, &mut buf);
    let frames = out.frames_checked.max(1) as f64;
    out.parse_ns_per_frame = parse_ns as f64 / frames;
    out.encode_ns_per_frame = both_ns.saturating_sub(parse_ns) as f64 / frames;

    // Pool: every server read in tick order, one drive per tick.
    let mut reads: Vec<(u64, usize, usize, usize)> = Vec::new();
    for (c, cap) in ingress.iter().enumerate() {
        let mut prev = 0;
        for &(tick, end) in &cap.reads {
            reads.push((tick, c, prev, end));
            prev = end;
        }
    }
    reads.sort_unstable();
    // As the server configures each shard pool.
    let mut pool = Pool::new(MultiConfig {
        workers: 1,
        ..MultiConfig::default()
    });
    let mut decoders: Vec<WireDecoder> = ingress.iter().map(|_| WireDecoder::new()).collect();
    let mut conn_session: Vec<Option<SessionId>> = vec![None; ingress.len()];
    let mut msg_session: HashMap<u32, SessionId> = HashMap::new();
    let mut sid_msg: HashMap<SessionId, u32> = HashMap::new();
    let mut last_attempts: HashMap<SessionId, u32> = HashMap::new();
    let mut symbols: Vec<(Slot, IqSymbol)> = Vec::new();
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut i = 0;
    while i < reads.len() {
        let tick = reads[i].0;
        while i < reads.len() && reads[i].0 == tick {
            let (_, c, from, to) = reads[i];
            i += 1;
            let msg = ingress[c].msg;
            let dec = &mut decoders[c];
            dec.push_bytes(&ingress[c].bytes[from..to]);
            while let Ok(Some(frame)) = dec.next_frame() {
                match frame {
                    Frame::Hello(h) => {
                        if let Ok(sid) = admit(&h, &mut pool) {
                            conn_session[c] = Some(sid);
                            msg_session.insert(msg, sid);
                            sid_msg.insert(sid, msg);
                        }
                    }
                    Frame::Resume { .. } => {
                        conn_session[c] = msg_session.get(&msg).copied();
                    }
                    Frame::Data { run, .. } => {
                        let Some(sid) = conn_session[c] else { continue };
                        if pool.get(sid).is_none() {
                            continue;
                        }
                        symbols.clear();
                        run.copy_into(&mut symbols);
                        let _ = pool.ingest_at(sid, &symbols);
                    }
                    _ => {}
                }
            }
        }
        let t = Instant::now();
        pool.drive_until_into(u64::MAX, &mut events);
        out.drive_ns += t.elapsed().as_nanos() as u64;
        for ev in &events {
            let SessionOutcome::Poll(poll) = ev.outcome else {
                if matches!(ev.outcome, SessionOutcome::Abandoned { .. }) {
                    let _ = pool.remove(ev.id);
                }
                continue;
            };
            let Some(rx) = pool.get(ev.id) else { continue };
            let last = last_attempts.entry(ev.id).or_insert(0);
            if rx.attempts() > *last {
                *last = rx.attempts();
                let st = &rx.last_result().stats;
                out.nodes_expanded += st.nodes_expanded;
                out.hash_calls += st.hash_calls;
                out.frontier_peak = out.frontier_peak.max(st.frontier_peak);
            }
            let verdict = match poll {
                Poll::NeedMore { .. } => continue,
                Poll::Decoded {
                    symbols_used,
                    attempts,
                } => Verdict {
                    payload: rx.payload().cloned(),
                    symbols_used,
                    attempts,
                },
                Poll::Exhausted { symbols_used } => Verdict {
                    payload: None,
                    symbols_used,
                    attempts: rx.attempts(),
                },
            };
            out.attempts += u64::from(verdict.attempts);
            if let Some(msg) = sid_msg.get(&ev.id) {
                out.verdicts.insert(*msg, verdict);
            }
            let _ = pool.remove(ev.id);
        }
        out.checkpoint_peak = out.checkpoint_peak.max(pool.checkpoint_bytes());
    }
    out.demotions = pool.demotions();
    out
}
