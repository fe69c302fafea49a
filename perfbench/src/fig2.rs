//! The `fig2_sim` workload: the paper's Figure 2 experiment
//! (`RatelessConfig::fig2()`, genie termination) on the serial
//! simulation engine, one trial per call so each trial's wall time is a
//! latency sample. No serving layer is involved.

use std::time::Instant;

use spinal_sim::engine::SimEngine;
use spinal_sim::rateless::{run_awgn_with, RatelessConfig};
use spinal_sim::stats::derive_seed;

use crate::alloc;
use crate::report::{capacity, median, nearest_rank, Metrics, Report};
use crate::trace::{self, Layer};

/// Widely spaced SNR points, in dB; one trial at each per round.
pub const SNRS_DB: [f64; 4] = [0.0, 10.0, 20.0, 30.0];
const SETUP_REPS: usize = 3;
/// Rounds in each set-up repetition's warm-up.
const WARMUP_ROUNDS: u64 = 3;

#[derive(Default)]
struct Acc {
    trials: u64,
    successes: u64,
    correct_bits: u64,
    symbols: u64,
    attempts: u64,
    sim_ns: u64,
    loadgen_ns: u64,
    latency_ms: Vec<f64>,
    latency_attempts: Vec<u64>,
    /// Per SNR point: successes, symbols, sum of log2(attempts).
    points: [(u64, u64, f64); SNRS_DB.len()],
}

/// One trial at every SNR point.
fn round(cfg: &RatelessConfig, engine: &SimEngine, seed: u64, r: u64, acc: &mut Acc) {
    for (p, &snr) in SNRS_DB.iter().enumerate() {
        let t = Instant::now();
        let trial_seed = derive_seed(seed, 60 + p as u64, r);
        acc.loadgen_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let (out, ns) = trace::timed(Layer::Sim, u32::MAX, || {
            run_awgn_with(cfg, snr, 1, trial_seed, engine)
        });
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let out = out.expect("the Figure 2 configuration is valid");
        let attempts = out.attempts.mean().round() as u64;
        acc.sim_ns += ns;
        acc.trials += u64::from(out.trials);
        acc.successes += u64::from(out.successes);
        acc.correct_bits += u64::from(out.successes) * u64::from(cfg.message_bits);
        acc.symbols += out.total_symbols;
        acc.attempts += attempts;
        acc.latency_ms.push(wall_ms);
        acc.latency_attempts.push(attempts);
        let point = &mut acc.points[p];
        point.0 += u64::from(out.successes);
        point.1 += out.total_symbols;
        point.2 += (attempts.max(1) as f64).log2();
    }
}

/// One measured run.
pub fn run(seed: u64, seconds: f64, traced: bool, t0: Instant) -> Report {
    let engine = SimEngine::serial();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { t0 } else { Instant::now() };
        let cfg = RatelessConfig::fig2();
        let mut warm = Acc::default();
        for r in 0..WARMUP_ROUNDS {
            round(
                &cfg,
                &engine,
                !seed,
                rep as u64 * WARMUP_ROUNDS + r,
                &mut warm,
            );
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let cfg = RatelessConfig::fig2();

    let mut acc = Acc::default();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut heap_peaks = Vec::new();
    let start = Instant::now();
    let mut r = 0u64;
    while r == 0 || start.elapsed().as_secs_f64() < budget {
        // Room for the round's samples is made before the baseline, so
        // the peak counts only the simulation.
        acc.latency_ms.reserve(SNRS_DB.len());
        acc.latency_attempts.reserve(SNRS_DB.len());
        alloc::reset_peak();
        round(&cfg, &engine, seed, r, &mut acc);
        heap_peaks.push(alloc::peak_added_bytes() as f64);
        r += 1;
    }
    let window = start.elapsed().as_secs_f64();
    let rate = acc.successes as f64 / window;

    let mut m = Metrics::default();
    let mut notes = vec![format!(
        "fig2_sim: RatelessConfig::fig2() (m = {}, k = {}, B = 16, genie), {r} rounds of one \
         trial at each of {SNRS_DB:?} dB",
        cfg.message_bits, cfg.k
    )];
    if traced {
        let (untraced_trials, untraced_attempts, untraced_symbols) =
            (acc.trials, acc.attempts, acc.symbols);
        trace::with(|m| m.reset(true));
        let t = Instant::now();
        let before = acc.successes;
        let mut n = 0u64;
        while n == 0 || t.elapsed().as_secs_f64() < seconds / 4.0 {
            round(&cfg, &engine, seed, r + n, &mut acc);
            n += 1;
        }
        let traced_rate = (acc.successes - before) as f64 / t.elapsed().as_secs_f64();
        let spans = trace::with(|m| {
            m.on = false;
            m.spans.len() as u64 + m.spans_dropped
        });
        let trials = (acc.trials - untraced_trials).max(1) as f64;
        let attempts = (acc.attempts - untraced_attempts).max(1) as f64;
        m.set("sim.us_per_attempt", acc.sim_ns as f64 / 1e3 / attempts);
        m.set("sim.attempts_per_msg", attempts / trials);
        m.set(
            "sim.symbols_per_msg",
            (acc.symbols - untraced_symbols) as f64 / trials,
        );
        m.set(
            "loadgen.us_per_msg",
            acc.loadgen_ns as f64 / 1e3 / acc.trials as f64,
        );
        m.set("trace.messages_per_s", traced_rate);
        m.set("trace.overhead_pct", (1.0 - traced_rate / rate) * 100.0);
        m.set("trace.spans", spans as f64);
    } else {
        let mut ms = acc.latency_ms.clone();
        let mut attempts = acc.latency_attempts.clone();
        m.set("messages_per_s", rate);
        m.set("msg_p50_ms", nearest_rank(&mut ms, 0.50));
        m.set("msg_p99_ms", nearest_rank(&mut ms, 0.99));
        m.set("msg_p99_ticks", nearest_rank(&mut attempts, 0.99) as f64);
        m.set(
            "goodput_bits_per_symbol",
            acc.correct_bits as f64 / acc.symbols as f64,
        );
        m.set("heap_peak_mb", median(&mut heap_peaks) / 1e6);
        notes.push(format!("set-up repetitions: {setups:?} s"));
        m.set("setup_s", median(&mut setups));
        notes.push(format!("latency samples: {}", ms.len()));
    }

    // Properties the method must have.
    let mut violations = Vec::new();
    if acc.successes != acc.trials {
        violations.push(format!(
            "{} of {} genie trials did not decode",
            acc.trials - acc.successes,
            acc.trials
        ));
    }
    let mut prev = 0.0;
    for (p, &snr) in SNRS_DB.iter().enumerate() {
        let (succ, symbols, log_attempts) = acc.points[p];
        let thr = (succ * u64::from(cfg.message_bits)) as f64 / symbols as f64;
        // The genie's stop signal is unpaid side information worth about
        // log2(attempts) bits per trial (RatelessOutcome::throughput).
        let bound = capacity(snr) + log_attempts / symbols as f64;
        notes.push(format!(
            "{snr} dB: throughput {thr:.3} bits/symbol, capacity {:.3}, genie bound {bound:.3}",
            capacity(snr)
        ));
        if thr > bound {
            violations.push(format!(
                "{snr} dB: throughput {thr:.4} exceeds capacity plus genie allowance {bound:.4}"
            ));
        }
        if thr <= prev {
            violations.push(format!(
                "{snr} dB: throughput {thr:.4} does not rise above the previous point's {prev:.4}"
            ));
        }
        prev = thr;
    }
    Report {
        correct: violations.is_empty(),
        attempted: acc.trials,
        failed: acc.trials - acc.successes,
        metrics: m,
        notes,
        violations,
    }
}
