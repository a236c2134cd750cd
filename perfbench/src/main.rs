//! The repository benchmark: three workloads through the entry points a
//! user of `tinydep` reaches, every output checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|cholsky|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! * `corpus` — every built-in corpus program in corpus order, each a
//!   cold one-shot `tinydep --all --parallelize`: parse, sema, extended
//!   analysis on one fresh solver cache per corpus pass (what
//!   `analyze_corpus` does at one thread), the `--all` report and the
//!   `--parallelize` report. The exact-formula fallback in the kill
//!   tests of `stepped_reset` dominates it.
//! * `cholsky` — the paper's Figures 3/4 program, the same one-shot op
//!   with a fresh cache each time: the solver, canonicalization and
//!   checkpoint miss path with almost no fallback.
//! * `serve` — one in-process analysis server with 2 pool workers on a
//!   Unix socket, one closed-loop client, all on one CPU; a seeded mix
//!   of warm repeats and fresh program variants over every report kind.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics, attributed by spans
//! around the public calls and by the counters the analysis exposes.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod calls;
mod cold;
mod layers;
mod measure;
mod oracle;
mod serve;
mod stream;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use measure::Metric;

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

/// `peak_heap_mb` is the peak live heap up to the completion of this
/// many ops (or the end of the run, if it is shorter), so that it does
/// not grow with throughput.
pub const PEAK_AFTER_OPS: usize = 200;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
    })
}

/// What a workload run hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The timed part of an untraced run.
pub struct Timed {
    /// Op latencies in milliseconds, by round: the unit of input a run
    /// repeats (a corpus pass, a serve round of one request per corpus
    /// program; the whole run for `cholsky`, whose every op is the
    /// same).
    pub rounds: Vec<Vec<f64>>,
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    pub peak_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// The end-to-end metrics. A latency percentile is the median over
    /// rounds of the round's percentile: the rounds repeat one input, so
    /// a host hiccup in one of them does not move it. Pooling the ops
    /// instead would put the `corpus` and `serve` `p95` on the edge
    /// between the three slowest programs and the rest, where it reads
    /// the run's few worst hiccups.
    pub fn outcome(self) -> Outcome {
        let n: usize = self.rounds.iter().map(Vec::len).sum();
        let pct = |p: f64| {
            let per_round: Vec<f64> = self
                .rounds
                .iter()
                .map(|r| measure::percentile(&measure::sorted(r), p))
                .collect();
            measure::median(&per_round)
        };
        let metrics = vec![
            Metric::new("ops_per_s", n as f64 / self.wall_s, "1/s", n),
            Metric::new("op_ms.p50", pct(0.50), "ms", n),
            Metric::new("op_ms.p95", pct(0.95), "ms", n),
            Metric::new(
                "setup_s",
                measure::median(&self.setup_s),
                "s",
                self.setup_s.len(),
            ),
            Metric::new("peak_heap_mb", self.peak_bytes as f64 / 1e6, "MB", n),
        ];
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// The process's peak live heap so far.
pub fn peak_bytes() -> u64 {
    harness::alloc::snapshot().peak_bytes
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "corpus" => cold::run_corpus(&args),
        "cholsky" => cold::run_cholsky(&args),
        "serve" => serve::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (corpus, cholsky, serve)"
        )),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let w = &args.workload;
    for m in &outcome.metrics {
        println!(
            "{w:<8} {:<32} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    if !args.trace {
        println!(
            "{w:<8} {:<32} {:>14.4} {:<6} (n={})",
            "failed_ratio",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio",
            outcome.attempted
        );
    }
    println!(
        "{}",
        measure::result_line(
            outcome.failed == 0 && outcome.attempted > 0,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
