//! The serving workloads: closed-loop links over the deterministic
//! loopback, one server, warm restarts at fixed ticks.
//!
//! A *round* is one server lifetime: a fresh [`Server`], every link
//! sends messages one after another (the next starts on the tick after
//! its predecessor's verdict) until the round's horizon tick, the
//! server is killed and restored at fixed ticks, and the round ends when
//! the last message started reaches its verdict. Each message's
//! dialogue depends only on its own inputs and the restart ticks, so
//! every link sends the same messages in every round: a run is a whole
//! number of identical rounds and its failed share is the same however
//! long it runs.
//!
//! What a message is — payload, code seed, SNR, noise, drop decisions,
//! pipe chunking — is fixed per (link, index) and does not depend on
//! `--seed`: the CRC-16 false accepts are then the same messages in
//! every run. `--seed` permutes the order in which links connect and
//! are served each tick (connection ids, pool slots, resume tokens and
//! the server's iteration order all follow it). Under the server's
//! default unbounded drive budget every session's decode is independent
//! of the others', so no verdict depends on that order.

use std::collections::HashMap;
use std::time::Instant;

use spinal_channel::{AwgnChannel, Channel};
use spinal_core::bits::BitVec;
use spinal_core::symbol::IqSymbol;
use spinal_link::{FaultPlan, FeedbackMode, LinkFault};
use spinal_serve::{
    loopback_pair, loopback_pair_chunked, ClientConfig, ClientOutcome, LoopbackTransport,
    NoiseHook, ServeClient, ServeConfig, Server,
};
use spinal_sim::stats::derive_seed;

use crate::report::{capacity, median, nearest_rank, Metrics, Report};
use crate::trace::{self, Layer, Metered, Side};
use crate::{alloc, replay};

type Conn = Metered<LoopbackTransport>;

/// Base of every per-message seed: fixed, see the module docs.
const CORPUS_SEED: u64 = 0x5EED_F162;
/// The SNR classes links draw from, in dB.
pub const SNRS_DB: [f64; 4] = [4.0, 8.0, 12.0, 18.0];
/// Loopback capacity per direction.
const PIPE_BYTES: usize = 1 << 12;
/// Symbol drop probability on NACK links.
const NACK_DROP: f64 = 0.15;
/// Cumulative-ACK snapshot period, in ticks.
const CUM_PERIOD: u64 = 2;
/// A round that has not ended by this tick is a hang.
const MAX_ROUND_TICKS: u64 = 100_000;
/// Untraced setup repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// How one link sends.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    pub class: &'static str,
    pub k: u32,
    pub c: u32,
    pub beam: u32,
    pub payload_bytes: usize,
    pub burst: usize,
    pub mode: FeedbackMode,
    /// 15 % symbol drops on the data link (the NACK links).
    pub drop: bool,
    pub chunked: bool,
    pub snr: usize,
    /// Tick of the link's first message.
    pub start: u64,
}

/// A serving workload: its links, the last tick at which a link may
/// start a message, and the ticks at which the server is killed and
/// restored.
pub struct Workload {
    pub links: Vec<LinkSpec>,
    pub horizon: u64,
    pub restarts: Vec<u64>,
    /// Horizon of each set-up repetition's warm-up round.
    pub warmup: u64,
}

/// A link at the serve shape: k = 4, c = 8, B = 4, 32-bit payload
/// (+ CRC-16), 8-symbol bursts. Feedback cycles ACK, ACK, NACK over a
/// 15 %-drop link, cumulative ACK, ACK; one link in five (spread over
/// all feedback kinds) reads through a chunked pipe.
fn serve_link(i: usize) -> LinkSpec {
    let kind = i % 5;
    let mode = match kind {
        2 => FeedbackMode::Nack,
        3 => FeedbackMode::CumulativeAck { period: CUM_PERIOD },
        _ => FeedbackMode::AckOnly,
    };
    LinkSpec {
        class: "serve",
        k: 4,
        c: 8,
        beam: 4,
        payload_bytes: 4,
        burst: 8,
        mode,
        drop: kind == 2,
        chunked: kind == (i / 5) % 5,
        snr: (i / 5) % SNRS_DB.len(),
        start: 1 + (i % 4) as u64,
    }
}

/// Builds a serving workload by name.
pub fn workload(name: &str) -> Option<Workload> {
    match name {
        "serve_uniform" => Some(Workload {
            links: (0..128).map(serve_link).collect(),
            horizon: 240,
            restarts: vec![60, 120, 180],
            warmup: 12,
        }),
        "serve_mixed" => {
            let mut links: Vec<LinkSpec> = (0..96).map(serve_link).collect();
            // Expensive minority: serve-shape links with 1- and
            // 2-symbol bursts (a decode attempt per burst on a sparsely
            // observed tree) ...
            for j in 0..12 {
                let burst = 1 + j % 2;
                links.push(LinkSpec {
                    class: "sparse",
                    burst,
                    mode: FeedbackMode::AckOnly,
                    drop: false,
                    chunked: false,
                    snr: j % SNRS_DB.len(),
                    start: 1 + (j % 4) as u64,
                    ..serve_link(j)
                });
            }
            // ... and links at the Figure 2 decoder shape with longer
            // payloads: k = 8, c = 10, B = 16, 64-bit payload.
            for j in 0..8 {
                links.push(LinkSpec {
                    class: "fig2",
                    k: 8,
                    c: 10,
                    beam: 16,
                    payload_bytes: 8,
                    burst: 4,
                    mode: FeedbackMode::AckOnly,
                    drop: false,
                    chunked: false,
                    snr: j % SNRS_DB.len(),
                    start: 1 + (j % 4) as u64,
                });
            }
            Some(Workload {
                links,
                horizon: 96,
                restarts: vec![24, 48, 72],
                warmup: 8,
            })
        }
        _ => None,
    }
}

/// Workload-wide message id: link in the high half, index in the low.
fn message_id(link: usize, index: u32) -> u32 {
    ((link as u32) << 16) | index
}

fn payload_for(mid: u32, bytes: usize) -> BitVec {
    let v: Vec<u8> = (0..bytes)
        .map(|b| (derive_seed(CORPUS_SEED, 1, u64::from(mid) | ((b as u64) << 32)) & 0xff) as u8)
        .collect();
    BitVec::from_bytes(&v)
}

fn pair(spec: &LinkSpec, mid: u32, conn_no: u64) -> (LoopbackTransport, LoopbackTransport) {
    if spec.chunked {
        let seed = derive_seed(CORPUS_SEED, 5, (u64::from(mid) << 8) | conn_no);
        loopback_pair_chunked(PIPE_BYTES, seed)
    } else {
        loopback_pair(PIPE_BYTES)
    }
}

/// AWGN at the link's SNR; when tracing, the hook's own time is
/// charged to the load generator.
fn noise_hook(snr_db: f64, seed: u64, traced: bool) -> NoiseHook {
    let mut ch = AwgnChannel::from_snr_db(snr_db, seed);
    if !traced {
        return Box::new(move |x: IqSymbol| ch.transmit(x));
    }
    Box::new(move |x: IqSymbol| {
        let t = Instant::now();
        let y = ch.transmit(x);
        let ns = t.elapsed().as_nanos() as u64;
        trace::with(|m| m.noise_ns += ns);
        y
    })
}

/// A seeded permutation of `0..n` (Fisher–Yates over `derive_seed`).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (derive_seed(seed, 7, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// What the client saw at a verdict (the traced replay must match it).
#[derive(Clone, Debug)]
pub struct ClientVerdict {
    pub payload: Option<BitVec>,
    pub symbols_used: u64,
    pub attempts: u32,
}

/// One warm restart's measurements.
#[derive(Clone, Copy, Debug, Default)]
struct Restart {
    encode_ns: u64,
    restore_ns: u64,
    image_bytes: usize,
    detached: usize,
    live: usize,
}

/// Accumulated over a run's rounds.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    false_accepts: u64,
    correct_msgs: u64,
    restarted_msgs: u64,
    correct_bits: u64,
    symbols_in: u64,
    class_bits: [u64; SNRS_DB.len()],
    class_symbols: [u64; SNRS_DB.len()],
    latency_ms: Vec<f64>,
    latency_ticks: Vec<u64>,
    restarts: Vec<Restart>,
    orphans: Vec<u64>,
    tokenless: Vec<u64>,
    violations: Vec<String>,
    /// Tick of each link class's last verdict in the latest round.
    class_end: Vec<(&'static str, u64)>,
    // Traced rounds only.
    tick_ns: Vec<u64>,
    server_ns: u64,
    client_ns: u64,
    loadgen_ns: u64,
    traced_msgs: u64,
    traced_symbols_sent: u64,
    backpressure_ticks: u64,
    egress_overflow: u64,
    result_deferred: u64,
    verdicts: HashMap<u32, ClientVerdict>,
}

impl Acc {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }
}

struct LinkState {
    client: Option<ServeClient<Conn>>,
    next: u32,
    ready: u64,
    mid: u32,
    expected: BitVec,
    started_tick: u64,
    started_at: Instant,
    conn_no: u64,
    restarted: bool,
}

/// Which round to run.
#[derive(Clone, Copy)]
enum Extent {
    Full,
    /// Links start messages up to this tick, no restarts (warm-up).
    Warmup(u64),
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        // Snapshots need a pinned secret; everything else is default.
        resume_secret: Some(derive_seed(CORPUS_SEED, 9, 0)),
        ..ServeConfig::default()
    }
}

/// Runs one round (one server lifetime).
fn run_round(w: &Workload, order: &[usize], extent: Extent, acc: &mut Acc) {
    let traced = trace::on();
    let cfg = serve_config();
    let mut server: Server<Conn> = Server::new(cfg).expect("default serve config is valid");
    let mut links: Vec<LinkState> = w
        .links
        .iter()
        .map(|s| LinkState {
            client: None,
            next: 0,
            ready: s.start,
            mid: 0,
            expected: BitVec::new(),
            started_tick: 0,
            started_at: Instant::now(),
            conn_no: 0,
            restarted: false,
        })
        .collect();
    let (horizon, restarts): (u64, &[u64]) = match extent {
        Extent::Full => (w.horizon, &w.restarts),
        Extent::Warmup(h) => (h, &[]),
    };
    let mut image = Vec::new();
    let mut tokenless = 0u64;
    let mut client_decoded = 0u64;
    let mut attempted = 0u64;
    let mut tick = 0u64;
    loop {
        tick += 1;
        if tick > MAX_ROUND_TICKS {
            acc.violation(format!("round did not end within {MAX_ROUND_TICKS} ticks"));
            break;
        }
        trace::with(|m| m.tick = tick);
        let ((), ns) = trace::timed(Layer::Server, u32::MAX, || server.tick());
        if traced {
            acc.tick_ns.push(ns);
            acc.server_ns += ns;
        }
        server.reap_closed();

        if restarts.contains(&tick) {
            let before = (server.detached_sessions(), server.live_sessions());
            let t = Instant::now();
            server
                .snapshot_into(&mut image)
                .expect("the resume secret is pinned");
            let encode_ns = trace::with(|m| m.span(Layer::Snapshot, u32::MAX, t));
            // Dropping the server severs every connection, as a process
            // death would.
            drop(server);
            let t = Instant::now();
            server = Server::restore(cfg, &image).expect("a fresh snapshot restores");
            let restore_ns = trace::with(|m| m.span(Layer::Snapshot, u32::MAX, t));
            acc.restarts.push(Restart {
                encode_ns,
                restore_ns,
                image_bytes: image.len(),
                detached: before.0,
                live: before.1,
            });
            for &i in order {
                let st = &mut links[i];
                let Some(client) = st.client.as_mut() else {
                    continue;
                };
                st.conn_no += 1;
                st.restarted = true;
                let (local, remote) = pair(&w.links[i], st.mid, st.conn_no);
                let remote = Metered::new(remote, Side::Server, st.mid);
                match client.resume_token() {
                    Some(token) => {
                        server.add_resume_connection(remote, token);
                    }
                    None => {
                        server.add_connection(remote);
                        tokenless += 1;
                    }
                }
                drop(client.reconnect(Metered::new(local, Side::Client, st.mid)));
            }
        }

        let mut active = false;
        for &i in order {
            let spec = &w.links[i];
            let st = &mut links[i];
            if st.client.is_none() {
                if st.ready > horizon {
                    continue;
                }
                active = true;
                if tick < st.ready {
                    continue;
                }
                let mid = message_id(i, st.next);
                st.next += 1;
                let t = Instant::now();
                let payload = payload_for(mid, spec.payload_bytes);
                if traced {
                    acc.loadgen_ns += t.elapsed().as_nanos() as u64;
                }
                let ccfg = ClientConfig {
                    k: spec.k,
                    c: spec.c,
                    beam: spec.beam,
                    seed: derive_seed(CORPUS_SEED, 2, u64::from(mid)),
                    mode: spec.mode,
                    burst: spec.burst,
                    ..ClientConfig::default()
                };
                st.started_at = Instant::now();
                st.started_tick = tick;
                let (local, remote) = pair(spec, mid, 0);
                server.add_connection(Metered::new(remote, Side::Server, mid));
                let mut client =
                    ServeClient::new(Metered::new(local, Side::Client, mid), &ccfg, &payload)
                        .expect("workload shapes are valid");
                if spec.drop {
                    let plan = FaultPlan::new(derive_seed(CORPUS_SEED, 4, u64::from(mid)))
                        .with(LinkFault::Drop { p: NACK_DROP });
                    client = client.with_fault(&plan);
                }
                let noise_seed = derive_seed(CORPUS_SEED, 3, u64::from(mid));
                client = client.with_noise(noise_hook(SNRS_DB[spec.snr], noise_seed, traced));
                st.client = Some(client);
                st.mid = mid;
                st.expected = payload;
                st.conn_no = 0;
                st.restarted = false;
            }
            active = true;
            let client = st.client.as_mut().expect("checked above");
            let ((), ns) = trace::timed(Layer::Client, st.mid, || client.tick());
            acc.client_ns += ns;
            if !client.is_done() {
                continue;
            }
            attempted += 1;
            let wall_ms = st.started_at.elapsed().as_secs_f64() * 1e3;
            let outcome = client.outcome().expect("a done client has an outcome");
            let sent = client.symbols_sent();
            st.ready = tick + 1;
            if matches!(extent, Extent::Full) {
                acc.attempted += 1;
                acc.latency_ms.push(wall_ms);
                acc.latency_ticks.push(tick - st.started_tick);
                acc.restarted_msgs += u64::from(st.restarted);
            }
            match outcome {
                ClientOutcome::Decoded {
                    symbols_used,
                    attempts,
                } => {
                    client_decoded += 1;
                    let ok = client.decoded_payload() == Some(&st.expected);
                    if traced {
                        acc.traced_msgs += 1;
                        acc.traced_symbols_sent += sent;
                        acc.verdicts.insert(
                            st.mid,
                            ClientVerdict {
                                payload: client.decoded_payload().cloned(),
                                symbols_used,
                                attempts,
                            },
                        );
                    }
                    if matches!(extent, Extent::Full) {
                        if ok {
                            let bits = (spec.payload_bytes * 8) as u64;
                            acc.correct_msgs += 1;
                            acc.correct_bits += bits;
                            acc.class_bits[spec.snr] += bits;
                            acc.class_symbols[spec.snr] += sent;
                        } else {
                            // The CRC-16 the serve dialogue hard-codes
                            // passed a wrong candidate.
                            acc.failed += 1;
                            acc.false_accepts += 1;
                            if st.restarted {
                                acc.violation(format!(
                                    "message {:#x} was in flight at a restart and decoded a \
                                     wrong payload",
                                    st.mid
                                ));
                            }
                        }
                    }
                }
                other => {
                    if matches!(extent, Extent::Full) {
                        acc.failed += 1;
                        if st.restarted {
                            acc.violation(format!(
                                "message {:#x} was in flight at a restart and ended {other:?}",
                                st.mid
                            ));
                        }
                    }
                }
            }
            st.client = None;
            match acc.class_end.iter_mut().find(|(c, _)| *c == spec.class) {
                Some(e) => e.1 = tick,
                None => acc.class_end.push((spec.class, tick)),
            }
        }
        if !active {
            break;
        }
    }
    // Two more ticks let the server observe the last hang-ups.
    for _ in 0..2 {
        trace::with(|m| m.tick += 1);
        server.tick();
        server.reap_closed();
    }

    let s = server.stats();
    if matches!(extent, Extent::Full) {
        acc.symbols_in += s.symbols_in;
        acc.orphans.push(server.live_sessions() as u64);
        acc.tokenless.push(tokenless);
        if traced {
            acc.backpressure_ticks += s.backpressure_ticks;
            acc.egress_overflow += s.egress_overflow;
            acc.result_deferred += s.result_deferred;
        }
    }
    if s.decoded != client_decoded {
        acc.violation(format!(
            "server decoded {} but clients saw {client_decoded} decodes",
            s.decoded
        ));
    }
    if s.admitted < attempted {
        acc.violation(format!(
            "server admitted {} sessions for {attempted} messages",
            s.admitted
        ));
    }
    // Conservation. Sessions still live at the end can only be the ones
    // a restart orphaned: admitted before the client held its resume
    // token, so the client had to start over with a fresh HELLO.
    let live = server.live_sessions() as u64;
    let concluded = s.decoded + s.exhausted + s.abandoned + s.shed + s.expired + s.restore_dropped;
    if s.admitted != concluded + live || live > tokenless {
        acc.violation(format!(
            "conservation: admitted {} != decoded {} + exhausted {} + abandoned {} + shed {} \
             + expired {} + restore_dropped {} + orphaned {live} (tokenless reconnects {tokenless})",
            s.admitted, s.decoded, s.exhausted, s.abandoned, s.shed, s.expired, s.restore_dropped
        ));
    }
}

/// One measured run of a serving workload. Round `r` serves the links
/// in the order `permutation(links, derive_seed(seed, 11, r))`.
pub fn run(name: &str, w: &Workload, seed: u64, seconds: f64, traced: bool, t0: Instant) -> Report {
    let order_of = |r: u64| permutation(w.links.len(), derive_seed(seed, 11, r));

    // Set-up: input order, server build and a warm-up round, repeated;
    // the first repetition is timed from process start.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { t0 } else { Instant::now() };
        let mut warm = Acc::default();
        run_round(
            w,
            &order_of(u64::MAX - rep as u64),
            Extent::Warmup(w.warmup),
            &mut warm,
        );
        if let Some(v) = warm.violations.first() {
            panic!("warm-up round failed its checks: {v}");
        }
        setups.push(start.elapsed().as_secs_f64());
    }

    let mut acc = Acc::default();
    // A link starts at most one message a tick, up to the horizon.
    let max_round_msgs = w.links.len() * (w.horizon as usize + 1);
    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut heap_peaks = Vec::new();
    let mut round_rates = Vec::new();
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed().as_secs_f64() < budget {
        let order = order_of(rounds);
        let (before, t) = (acc.correct_msgs, Instant::now());
        // Room for the round's samples is made before the baseline, so
        // the peak counts only the server, clients and decoder.
        acc.latency_ms.reserve(max_round_msgs);
        acc.latency_ticks.reserve(max_round_msgs);
        alloc::reset_peak();
        run_round(w, &order, Extent::Full, &mut acc);
        heap_peaks.push(alloc::peak_added_bytes() as f64);
        round_rates.push((acc.correct_msgs - before) as f64 / t.elapsed().as_secs_f64());
        rounds += 1;
    }
    let window = start.elapsed().as_secs_f64();
    let rate = acc.correct_msgs as f64 / window;

    let mut m = Metrics::default();
    let mut notes = vec![format!(
        "{name}: {} links, {rounds} rounds of {} messages (links start messages up to tick {}), \
         restarts at ticks {:?}",
        w.links.len(),
        acc.attempted / rounds,
        w.horizon,
        w.restarts
    )];
    notes.push(format!(
        "per-round messages/s: {:?}",
        round_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    notes.push(format!(
        "round length: last verdict by link class at ticks {:?}",
        acc.class_end
    ));
    if traced {
        // One traced round after the untraced half: spans, captures,
        // then the wire re-parse and the pool replay.
        let before = acc.correct_msgs;
        trace::with(|m| m.reset(true));
        let t = Instant::now();
        run_round(w, &order_of(rounds), Extent::Full, &mut acc);
        let traced_window = t.elapsed().as_secs_f64();
        let traced_rate = (acc.correct_msgs - before) as f64 / traced_window;
        trace::with(|m| m.on = false);
        for bad in traced_layers(&acc, rate, traced_rate, &mut m, &mut notes) {
            acc.violation(bad);
        }
    } else {
        let mut ms = acc.latency_ms.clone();
        let mut ticks = acc.latency_ticks.clone();
        m.set("messages_per_s", rate);
        m.set("msg_p50_ms", nearest_rank(&mut ms, 0.50));
        m.set("msg_p99_ms", nearest_rank(&mut ms, 0.99));
        m.set("msg_p99_ticks", nearest_rank(&mut ticks, 0.99) as f64);
        m.set(
            "goodput_bits_per_symbol",
            acc.correct_bits as f64 / acc.symbols_in as f64,
        );
        // Median over rounds of each round's peak: rounds differ only in
        // link order, which moves the peak by a few percent.
        m.set("heap_peak_mb", median(&mut heap_peaks) / 1e6);
        notes.push(format!("set-up repetitions: {setups:?} s"));
        m.set("setup_s", median(&mut setups));
        notes.push(format!(
            "latency samples: {} (p99 rests on {} samples above it)",
            ms.len(),
            ms.len() / 100
        ));
    }

    // Properties every run must have.
    for (c, snr) in SNRS_DB.iter().enumerate() {
        if acc.class_symbols[c] == 0 {
            continue;
        }
        let g = acc.class_bits[c] as f64 / acc.class_symbols[c] as f64;
        notes.push(format!(
            "class {snr} dB: {g:.3} correct bits per symbol sent (capacity {:.3})",
            capacity(*snr)
        ));
        if g > capacity(*snr) {
            acc.violation(format!(
                "class {snr} dB goodput {g:.4} exceeds capacity {:.4}",
                capacity(*snr)
            ));
        }
    }
    let med = |f: fn(&Restart) -> f64| median(&mut acc.restarts.iter().map(f).collect::<Vec<_>>());
    let restart_ms = med(|r| (r.encode_ns + r.restore_ns) as f64 / 1e6);
    let image_kb = med(|r| r.image_bytes as f64 / 1e3);
    notes.push(format!(
        "restarts: {}, median restart {restart_ms:.3} ms, median image {image_kb:.1} KB; messages \
         in flight at a restart: {}; CRC-16 false accepts: {} of {}",
        acc.restarts.len(),
        acc.restarted_msgs,
        acc.false_accepts,
        acc.attempted,
    ));
    for (r, t) in acc.restarts.iter().zip(&w.restarts) {
        notes.push(format!(
            "restart at tick {t}: {} detached entries, {} live sessions, image {:.1} KB, \
             snapshot_into {:.3} ms, restore {:.3} ms",
            r.detached,
            r.live,
            r.image_bytes as f64 / 1e3,
            r.encode_ns as f64 / 1e6,
            r.restore_ns as f64 / 1e6
        ));
    }
    let orphans = acc.orphans.first().copied().unwrap_or(0);
    notes.push(format!(
        "orphaned sessions per round {orphans}, clients that reconnected without a resume token {}",
        acc.tokenless.first().copied().unwrap_or(0)
    ));
    if traced {
        m.set("snapshot.restart_ms", restart_ms);
        m.set("snapshot.image_kb", image_kb);
        m.set("snapshot.encode_ms", med(|r| r.encode_ns as f64 / 1e6));
        m.set("snapshot.restore_ms", med(|r| r.restore_ns as f64 / 1e6));
        m.set("snapshot.detached_entries", med(|r| r.detached as f64));
        m.set("snapshot.live_sessions", med(|r| r.live as f64));
        m.set("snapshot.orphaned_sessions", orphans as f64);
    }
    Report {
        correct: acc.violations.is_empty(),
        attempted: acc.attempted,
        failed: acc.failed,
        metrics: m,
        notes,
        violations: acc.violations,
    }
}

/// Per-layer metrics of the traced round; returns the cross-check
/// failures (replayed verdicts or re-encoded frames that differ).
fn traced_layers(
    acc: &Acc,
    untraced_rate: f64,
    traced_rate: f64,
    out: &mut Metrics,
    notes: &mut Vec<String>,
) -> Vec<String> {
    let msgs = acc.traced_msgs.max(1) as f64;
    let (transport_ns, bytes_rx, noise_ns, spans, dropped) = trace::with(|m| {
        (
            m.transport_ns,
            m.bytes_rx,
            m.noise_ns,
            m.spans.len(),
            m.spans_dropped,
        )
    });
    let client_self = acc
        .client_ns
        .saturating_sub(transport_ns[Side::Client as usize] + noise_ns);
    let server_self = acc
        .server_ns
        .saturating_sub(transport_ns[Side::Server as usize]);
    out.set("client.us_per_msg", client_self as f64 / 1e3 / msgs);
    out.set(
        "client.symbols_per_msg",
        acc.traced_symbols_sent as f64 / msgs,
    );
    out.set(
        "transport.us_per_msg",
        (transport_ns[0] + transport_ns[1]) as f64 / 1e3 / msgs,
    );
    out.set(
        "transport.bytes_in_per_msg",
        bytes_rx[Side::Server as usize] as f64 / msgs,
    );
    out.set(
        "transport.bytes_out_per_msg",
        bytes_rx[Side::Client as usize] as f64 / msgs,
    );
    out.set("server.us_per_msg", server_self as f64 / 1e3 / msgs);
    let mut ticks = acc.tick_ns.clone();
    out.set(
        "server.tick_p50_us",
        nearest_rank(&mut ticks, 0.50) as f64 / 1e3,
    );
    out.set(
        "server.tick_p99_us",
        nearest_rank(&mut ticks, 0.99) as f64 / 1e3,
    );
    out.set("server.backpressure_ticks", acc.backpressure_ticks as f64);
    out.set("server.egress_overflow", acc.egress_overflow as f64);
    out.set("server.result_deferred", acc.result_deferred as f64);
    out.set(
        "loadgen.us_per_msg",
        (acc.loadgen_ns + noise_ns) as f64 / 1e3 / msgs,
    );
    out.set("trace.messages_per_s", traced_rate);
    out.set(
        "trace.overhead_pct",
        (1.0 - traced_rate / untraced_rate) * 100.0,
    );
    out.set("trace.spans", (spans as u64 + dropped) as f64);
    out.set("trace.replayed_msgs", acc.verdicts.len() as f64);

    let r = trace::with(|m| replay::run(&m.captures, &m.egress));
    out.set("wire.frames_in_per_msg", r.frames_in as f64 / msgs);
    out.set("wire.frames_out_per_msg", r.frames_out as f64 / msgs);
    out.set("wire.parse_ns_per_frame", r.parse_ns_per_frame);
    out.set("wire.encode_ns_per_frame", r.encode_ns_per_frame);
    out.set("pool.drive_us_per_msg", r.drive_ns as f64 / 1e3 / msgs);
    out.set("pool.attempts_per_msg", r.attempts as f64 / msgs);
    out.set("pool.checkpoint_kb_peak", r.checkpoint_peak as f64 / 1e3);
    out.set("pool.demotions", r.demotions as f64);
    out.set(
        "decode.us_per_attempt",
        r.drive_ns as f64 / 1e3 / r.attempts.max(1) as f64,
    );
    out.set(
        "decode.nodes_expanded_per_msg",
        r.nodes_expanded as f64 / msgs,
    );
    out.set("decode.hash_calls_per_msg", r.hash_calls as f64 / msgs);
    out.set("decode.frontier_peak", r.frontier_peak as f64);
    notes.push(format!(
        "traced round: {} messages, {} frames re-encoded byte-identically, {} verdicts replayed",
        acc.traced_msgs,
        r.frames_checked,
        r.verdicts.len()
    ));
    let mut bad = Vec::new();
    if r.reencode_mismatches > 0 {
        bad.push(format!(
            "{} captured frames did not re-encode byte-identically",
            r.reencode_mismatches
        ));
    }
    for (mid, cv) in &acc.verdicts {
        let Some(rv) = r.verdicts.get(mid) else {
            bad.push(format!("message {mid:#x}: no verdict in the replay"));
            continue;
        };
        let same = rv.payload == cv.payload
            && (cv.symbols_used == 0 || rv.symbols_used == cv.symbols_used)
            && (cv.attempts == 0 || rv.attempts == cv.attempts);
        if !same {
            bad.push(format!(
                "message {mid:#x}: server said {cv:?}, replay says {rv:?}"
            ));
        }
    }
    bad
}
