//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_uniform|serve_mixed|fig2_sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Single process, single thread. Prints a machine header and notes as
//! `#` lines, then, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when an
//! output check fails, 2 on bad arguments. See `README.md`.

mod alloc;
mod fig2;
mod replay;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spinal_core::KernelDispatch;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["serve_uniform", "serve_mixed", "fig2_sim"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The CPU's brand string, read with CPUID (no file access).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID is available on every x86-64 processor; leaves
    // 0x8000_0002..=4 are read only after leaf 0x8000_0000 reports them.
    #[allow(unused_unsafe)]
    let bytes = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".into();
        }
        let mut b = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for w in [r.eax, r.ebx, r.ecx, r.edx] {
                b.extend_from_slice(&w.to_le_bytes());
            }
        }
        b
    };
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# machine: nproc={} cpu=\"{}\" kernels={:?} rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        KernelDispatch::detect(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT"),
    );

    let report = match serve::workload(&args.workload) {
        Some(w) => serve::run(&args.workload, &w, args.seed, args.seconds, args.trace, t0),
        None => fig2::run(args.seed, args.seconds, args.trace, t0),
    };
    if args.trace {
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match trace::with(|m| m.write_spans(&path)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for v in &report.violations {
        println!("# CHECK FAILED: {v}");
    }
    println!("{}", report.json(args.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
