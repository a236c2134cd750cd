//! The cold one-shot workloads, `corpus` and `cholsky`.
//!
//! Both run passes over a list of programs. A pass makes one fresh
//! solver cache that its programs share, as `analyze_corpus` does at one
//! thread; the `cholsky` pass is the single program, so every op is
//! cold. An op is one program through `tinydep --all --parallelize`.
//! Runs end on a pass boundary, so every run times whole passes.

use std::sync::Arc;
use std::time::Instant;

use omega_repro::{omega, tiny};

use crate::calls::{self, Kind};
use crate::layers::{self, AnalysisCounters, LayerAcc};
use crate::measure::{self, debug_counters};
use crate::oracle;
use crate::trace::Tracer;
use crate::{Args, Outcome, Timed, PEAK_AFTER_OPS};

/// How many times a run repeats its set-up, which takes milliseconds;
/// `setup_s` is the median.
const SETUP_REPEATS: usize = 25;

/// The reports every op renders: `tinydep --all --parallelize`.
const KINDS: [Kind; 2] = [Kind::All, Kind::Parallelize];

/// One untraced pass on one fresh cache: the reports every later pass
/// must reproduce.
fn reference_pass(programs: &[tiny::corpus::CorpusEntry]) -> Result<Vec<Vec<String>>, String> {
    let mut tr = Tracer::new(Instant::now());
    let cache = Arc::new(omega::SolverCache::new());
    programs
        .iter()
        .map(|e| {
            calls::op(&mut tr, 0, e.source, Arc::clone(&cache), &KINDS)
                .map(|done| done.reports)
                .map_err(|err| format!("{}: {err}", e.name))
        })
        .collect()
}

/// The inputs' set-up: parse and sema of every program.
fn validate(programs: &[tiny::corpus::CorpusEntry]) -> Result<(), String> {
    let mut tr = Tracer::new(Instant::now());
    for e in programs {
        calls::front_end(&mut tr, 0, None, e.source).map_err(|err| format!("{}: {err}", e.name))?;
    }
    Ok(())
}

pub fn run_corpus(args: &Args) -> Result<Outcome, String> {
    run(args, tiny::corpus::all(), true)
}

pub fn run_cholsky(args: &Args) -> Result<Outcome, String> {
    let cholsky = tiny::corpus::by_name("cholsky").ok_or("no cholsky in the corpus")?;
    run(args, vec![cholsky], false)
}

/// Per-op timings of one program in a traced pass, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    op: u64,
    front: u64,
    analyze: u64,
    render: u64,
    analysis: AnalysisCounters,
}

fn run(
    args: &Args,
    programs: Vec<tiny::corpus::CorpusEntry>,
    whole_corpus: bool,
) -> Result<Outcome, String> {
    // Set-up: parse and sema validate every input, repeated. The
    // reference pass, which also warms the process up, is not set-up.
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        validate(&programs)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let reference = reference_pass(&programs)?;

    let mut tr = Tracer::new(Instant::now());
    let mut layer = LayerAcc::default();
    let mut rows: Vec<Vec<Row>> = vec![Vec::new(); programs.len()];
    // Op latencies (ms): untraced passes, and all traced ops.
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak = None;
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed() < args.seconds {
        let traced = args.trace && pass % 2 == 1;
        tr.set_enabled(traced);
        let cache = Arc::new(omega::SolverCache::new());
        let rows_before = debug_counters(&format!("{:?}", omega::row_store_stats()));
        let mut total = oracle::Summary::default();
        let mut pass_ok = true;
        if !traced {
            rounds.push(Vec::with_capacity(programs.len()));
        }
        for (i, e) in programs.iter().enumerate() {
            let op = pass * programs.len() as u64 + i as u64;
            let mark = tr.len();
            let allocs = harness::alloc::thread_allocs();
            let t = Instant::now();
            let out = calls::op(&mut tr, op, e.source, Arc::clone(&cache), &KINDS);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let allocs = harness::alloc::thread_allocs() - allocs;
            attempted += 1;
            if attempted as usize == PEAK_AFTER_OPS {
                peak = Some(crate::peak_bytes());
            }
            match rounds.last_mut() {
                Some(round) if !traced => round.push(ms),
                _ => traced_ms.push(ms),
            }
            let checked = out.and_then(|o| {
                let s = oracle::check_program(e.name, &o.reports[0], &o.reports[1])?;
                if o.reports != reference[i] {
                    return Err(format!(
                        "{}: report differs from the reference pass",
                        e.name
                    ));
                }
                Ok((s, o.stats))
            });
            let stats = match checked {
                Ok((s, stats)) => {
                    total.loops += s.loops;
                    total.parallel += s.parallel;
                    stats
                }
                Err(err) => {
                    failed += 1;
                    pass_ok = false;
                    eprintln!("perfbench: op {op}: {err}");
                    continue;
                }
            };
            if traced {
                let spans = tr.totals_since(mark);
                let counters = AnalysisCounters::of(&stats);
                layer.add_op(&spans, &counters);
                layer.allocs += allocs;
                let span = |name| spans.get(name).copied().unwrap_or(0);
                rows[i].push(Row {
                    op: (ms * 1e6) as u64,
                    front: span("tiny.parse") + span("tiny.sema"),
                    analyze: span("depend.analyze"),
                    render: span("render.text") + span("depend.graph") + span("render.parallelize"),
                    analysis: counters,
                });
            }
        }
        if whole_corpus
            && pass_ok
            && (total.loops, total.parallel) != (oracle::CORPUS_LOOPS, oracle::CORPUS_PARALLEL)
        {
            failed += 1;
            eprintln!(
                "perfbench: pass {pass}: {} of {} loops parallelizable, pinned {} of {}",
                total.parallel,
                total.loops,
                oracle::CORPUS_PARALLEL,
                oracle::CORPUS_LOOPS
            );
        }
        if traced {
            let cache_now = debug_counters(&format!("{:?}", cache.stats()));
            layer.add_counters("omega.cache", &cache_now, layers::CACHE_GAUGES);
            let rows_now = debug_counters(&format!("{:?}", omega::row_store_stats()));
            let delta = measure::counter_delta(&rows_before, &rows_now, layers::ROW_GAUGES);
            layer.add_counters("omega.rows", &delta, layers::ROW_GAUGES);
        }
        pass += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();

    let plain_ms: Vec<f64> = rounds.concat();
    if !args.trace {
        if !whole_corpus {
            // Every op of `cholsky` is the same input: one round.
            rounds = vec![plain_ms];
        }
        return Ok(Timed {
            rounds,
            wall_s,
            setup_s,
            peak_bytes: peak.unwrap_or_else(crate::peak_bytes),
            attempted,
            failed,
        }
        .outcome());
    }

    let mut values = layer.values();
    let ratio = measure::ops_per_s(&traced_ms) / measure::ops_per_s(&plain_ms);
    values.insert("trace.ops_per_s_ratio".into(), ratio);
    layers::print_extra_values(&args.workload, &values);
    println!(
        "{:<8} tracing overhead: {:.1} ops/s traced vs {:.1} untraced ({} vs {} ops)",
        args.workload,
        measure::ops_per_s(&traced_ms),
        measure::ops_per_s(&plain_ms),
        traced_ms.len(),
        plain_ms.len()
    );
    print_rows(&programs, &rows);
    if whole_corpus {
        check_fallback_dominates(&programs, &rows);
    }
    tr.write_out(&args.workload, args.seed);
    Ok(Outcome {
        attempted,
        failed,
        metrics: layers::per_layer_metrics(&values, traced_ms.len()),
    })
}

fn median_of(rows: &[Row], f: impl Fn(&Row) -> u64) -> f64 {
    let v: Vec<f64> = rows.iter().map(|r| f(r) as f64 / 1e6).collect();
    measure::median(&v)
}

/// One row per program: median milliseconds over the traced passes.
fn print_rows(programs: &[tiny::corpus::CorpusEntry], rows: &[Vec<Row>]) {
    println!(
        "{:<22} {:>9} {:>7} {:>9} {:>8} {:>8} {:>9} {:>9} {:>7} {:>6} {:>6}",
        "PROGRAM",
        "OP_MS",
        "FRONT",
        "ANALYZE",
        "STD",
        "REF+COV",
        "KILL",
        "KILL_MAX",
        "RENDER",
        "PAIRS",
        "KILLS"
    );
    for (e, r) in programs.iter().zip(rows) {
        if r.is_empty() {
            continue;
        }
        let a = r[0].analysis;
        println!(
            "{:<22} {:>9.3} {:>7.3} {:>9.3} {:>8.3} {:>8.3} {:>9.3} {:>9.3} {:>7.3} {:>6} {:>6}",
            e.name,
            median_of(r, |x| x.op),
            median_of(r, |x| x.front),
            median_of(r, |x| x.analyze),
            median_of(r, |x| x.analysis.std_ns),
            median_of(r, |x| x.analysis.ext_ns.saturating_sub(x.analysis.std_ns)),
            median_of(r, |x| x.analysis.kill_ns),
            median_of(r, |x| x.analysis.kill_max_ns),
            median_of(r, |x| x.render),
            a.pairs,
            a.kill_tests
        );
    }
}

/// The measured state this benchmark starts from: one kill test in
/// `stepped_reset`, which ends in the exact-formula fallback, takes most
/// of a corpus pass. The line says whether the trace still sees it, so a
/// change to the fallback shows here first.
fn check_fallback_dominates(programs: &[tiny::corpus::CorpusEntry], rows: &[Vec<Row>]) {
    let pass_ms: f64 = rows
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median_of(r, |x| x.op))
        .sum();
    let Some((name, kill_max)) = programs
        .iter()
        .zip(rows)
        .filter(|(_, r)| !r.is_empty())
        .map(|(e, r)| (e.name, median_of(r, |x| x.analysis.kill_max_ns)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return;
    };
    let share = kill_max / pass_ms;
    let holds = name == "stepped_reset" && share > 0.5;
    println!(
        "corpus   trace check: largest kill test is in {name} ({kill_max:.1} ms), {:.0}% of a {pass_ms:.1} ms pass: {}",
        share * 100.0,
        if holds {
            "holds (stepped_reset's fallback dominates the corpus)"
        } else {
            "no longer holds"
        }
    );
}
