//! Spans and counters recorded from outside the program: around calls
//! into each layer's public functions, and inside a benchmark-owned
//! [`Transport`] wrapper.
//!
//! Everything lives in one thread-local [`Meter`] (the benchmark is
//! single-threaded). With tracing off the wrapper and the noise hook
//! only test a flag; with tracing on they time each call, and the
//! server-side wrapper also captures the bytes the server read, tick
//! by tick, for the wire re-parse and the pool replay.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use spinal_core::error::SpinalError;
use spinal_serve::Transport;

/// Layers a span can belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Client,
    Server,
    Transport,
    Snapshot,
    Sim,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Server => "server",
            Layer::Transport => "transport",
            Layer::Snapshot => "snapshot",
            Layer::Sim => "sim",
        }
    }
}

/// One timed call. `msg` is the message (a link's n-th message has a
/// workload-wide id); server ticks and restarts carry `u32::MAX`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub msg: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory per run; later spans are counted, not kept.
const MAX_SPANS: usize = 1 << 18;

/// Which end of a connection a [`Metered`] transport sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Client = 0,
    Server = 1,
}

/// Bytes one server connection read, in arrival order, with the tick
/// at which each read happened.
#[derive(Debug, Default)]
pub struct Capture {
    pub msg: u32,
    pub bytes: Vec<u8>,
    /// `(tick, end offset into bytes)` per non-empty read.
    pub reads: Vec<(u64, usize)>,
}

/// Per-run trace state.
#[derive(Debug)]
pub struct Meter {
    pub on: bool,
    epoch: Instant,
    /// Current event-loop tick (stamps captured reads).
    pub tick: u64,
    /// Time inside transport calls, by side.
    pub transport_ns: [u64; 2],
    /// Bytes received, by side: client side = server egress, server
    /// side = server ingress.
    pub bytes_rx: [u64; 2],
    /// Time inside the benchmark's AWGN noise hook.
    pub noise_ns: u64,
    /// Server-side reads, one capture per connection (when tracing).
    pub captures: Vec<Capture>,
    /// Client-side reads (server egress), one per connection.
    pub egress: Vec<Capture>,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl Meter {
    fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            tick: 0,
            transport_ns: [0; 2],
            bytes_rx: [0; 2],
            noise_ns: 0,
            captures: Vec::new(),
            egress: Vec::new(),
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    /// Clears every counter and capture and sets the tracing flag.
    pub fn reset(&mut self, on: bool) {
        *self = Self::new();
        self.on = on;
    }

    /// Records (when tracing) a span that started at `start` and ends
    /// now; returns its duration in nanoseconds.
    pub fn span(&mut self, layer: Layer, msg: u32, start: Instant) -> u64 {
        let dur_ns = start.elapsed().as_nanos() as u64;
        if !self.on {
            return dur_ns;
        }
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                layer,
                msg,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        } else {
            self.spans_dropped += 1;
        }
        dur_ns
    }

    /// Writes the kept spans as tab-separated text.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer\tmsg\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            let msg = if s.msg == u32::MAX {
                "-".to_string()
            } else {
                s.msg.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.layer.name(),
                msg,
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

thread_local! {
    static METER: RefCell<Meter> = RefCell::new(Meter::new());
}

/// Runs `f` with the thread's meter.
pub fn with<R>(f: impl FnOnce(&mut Meter) -> R) -> R {
    METER.with(|m| f(&mut m.borrow_mut()))
}

/// Whether tracing is on.
pub fn on() -> bool {
    with(|m| m.on)
}

/// Runs `f`; when tracing, records it as a span of `layer` and
/// returns its duration in nanoseconds (0 otherwise).
pub fn timed<R>(layer: Layer, msg: u32, f: impl FnOnce() -> R) -> (R, u64) {
    if !on() {
        return (f(), 0);
    }
    let start = Instant::now();
    let r = f();
    let ns = with(|m| m.span(layer, msg, start));
    (r, ns)
}

/// A transport wrapper owned by the benchmark: times every `send` and
/// `recv` when tracing, and on the server side captures what was read.
pub struct Metered<T> {
    inner: T,
    side: Side,
    msg: u32,
    /// Index into the meter's captures (server side) or egress
    /// captures (client side), when tracing.
    capture: Option<usize>,
}

impl<T: Transport> Metered<T> {
    /// Wraps one end of a connection carrying message `msg`.
    pub fn new(inner: T, side: Side, msg: u32) -> Self {
        let capture = with(|m| {
            if !m.on {
                return None;
            }
            let list = match side {
                Side::Client => &mut m.egress,
                Side::Server => &mut m.captures,
            };
            list.push(Capture {
                msg,
                ..Capture::default()
            });
            Some(list.len() - 1)
        });
        Self {
            inner,
            side,
            msg,
            capture,
        }
    }
}

impl<T: Transport> Transport for Metered<T> {
    fn send(&mut self, bytes: &[u8]) -> Result<usize, SpinalError> {
        if self.capture.is_none() {
            return self.inner.send(bytes);
        }
        let start = Instant::now();
        let r = self.inner.send(bytes);
        let side = self.side as usize;
        with(|m| {
            let ns = m.span(Layer::Transport, self.msg, start);
            m.transport_ns[side] += ns;
        });
        r
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize, SpinalError> {
        let Some(ci) = self.capture else {
            return self.inner.recv(out);
        };
        let before = out.len();
        let start = Instant::now();
        let r = self.inner.recv(out);
        let side = self.side as usize;
        with(|m| {
            let ns = m.span(Layer::Transport, self.msg, start);
            m.transport_ns[side] += ns;
            let got = &out[before..];
            if got.is_empty() {
                return;
            }
            m.bytes_rx[side] += got.len() as u64;
            let tick = m.tick;
            let cap = match self.side {
                Side::Client => &mut m.egress[ci],
                Side::Server => &mut m.captures[ci],
            };
            cap.bytes.extend_from_slice(got);
            cap.reads.push((tick, cap.bytes.len()));
        });
        r
    }
}
