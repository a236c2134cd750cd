//! The `serve` workload: one in-process analysis server with 2 pool
//! workers on a Unix socket, driven by one closed-loop client.
//!
//! Set-up makes and checks the request stream, starts the server and
//! primes it with one pass over the corpus, since a long-lived server
//! does not pay the cold cache on every request. The stream comes in
//! blocks (see [`crate::stream`]), and every block is answered by a
//! server of its own, started and primed outside the timed window: each
//! block's fresh variants then meet the same primed cache, which stays
//! far below the solver cache's caps, so every block measures the same
//! warm/fresh traffic. The run checks that it does. The client sends the
//! block's requests in order, each after the reply to the one before,
//! and blocks follow each other until the time is up. Every reply must
//! be `ok` and byte-identical to the one-shot rendering of its request,
//! which is computed after the timed window.
//!
//! The whole workload, server and client, runs on one CPU. A request
//! passes from the client to the connection thread, the dispatcher and
//! the pool, and back, and the pool hands pair batches between its
//! workers; on one CPU each of these hand-offs is a context switch,
//! while across CPUs it wakes another virtual CPU, and on a shared host
//! how long that takes depends on the other tenants. Unpinned, the
//! median request took up to 1.9 times as long in busy stretches of the
//! host as in quiet ones, while runs of the pinned workload between
//! them held their figures within a tenth. For the same reason there is
//! one client: with two, whether their requests meet in one batch of
//! the server's dispatcher, and so whether one waits for the other, is
//! a race the scheduler decides, and the median latency spread by more
//! than a third of itself between runs.
//!
//! The traced run splits latency into service and wait (the hand-offs)
//! by replaying the first block through `Server::handle_line` on one
//! thread, and attributes the service time to layers by replaying it
//! once more through the calls the server makes, with and without
//! spans.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use omega_repro::server::Server;
use omega_repro::{json, omega, tiny};

use crate::calls::{self, Kind};
use crate::layers::{self, AnalysisCounters, LayerAcc};
use crate::measure::{self, json_counters};
use crate::oracle;
use crate::stream::{Request, Stream};
use crate::trace::Tracer;
use crate::{Args, Outcome, Timed, PEAK_AFTER_OPS};

/// How many times a run repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Pool workers of the server.
const WORKERS: usize = 2;
/// Blocks in the stream; a run that uses them all ends early.
const BLOCKS: usize = 32;
/// Half the solver cache's entry cap and base-intern cap. A block that
/// ends above either, or that made the cache sweep its bases, would
/// time the cap policy instead of the traffic, and fails the run.
const MAX_ENTRIES: f64 = (1 << 15) as f64;
const MAX_BASE_FORMS: f64 = 2048.0;
/// A program whose priming request takes longer than this is in the
/// `stepped_reset` class.
const SLOW_MS: f64 = 100.0;

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn call(&mut self, line: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("socket: {e}");
        self.writer.write_all(line.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply).map_err(io)? == 0 {
            return Err("server closed the connection".into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}

/// A server answering on a Unix socket from its own thread.
struct Running {
    path: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(path: PathBuf) -> Result<Running, String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let server = Server::new(WORKERS, None);
        let at = path.clone();
        let thread = std::thread::spawn(move || server.run_unix(&at));
        Ok(Running { path, thread })
    }

    fn connect(&self) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.path) {
                Ok(stream) => {
                    let reader = stream
                        .try_clone()
                        .map(BufReader::new)
                        .map_err(|e| format!("socket: {e}"))?;
                    return Ok(Client {
                        reader,
                        writer: stream,
                    });
                }
                Err(e) if Instant::now() > deadline || self.thread.is_finished() => {
                    return Err(format!("connecting to {}: {e}", self.path.display()))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Sends `shutdown` and waits for the server thread to end.
    fn stop(self) -> Result<(), String> {
        let reply = self.connect()?.call("{\"op\":\"shutdown\"}")?;
        if !reply.contains("\"shutdown\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// The priming pass: each corpus program once, one at a time. Returns
/// each request's milliseconds.
fn prime(client: &mut Client, programs: &[tiny::corpus::CorpusEntry]) -> Result<Vec<f64>, String> {
    programs
        .iter()
        .map(|e| {
            let t = Instant::now();
            let reply =
                client.call(&format!("{{\"op\":\"analyze\",\"corpus\":\"{}\"}}", e.name))?;
            if !reply.starts_with("{\"ok\":true") {
                return Err(format!("priming {}: {reply}", e.name));
            }
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// One answered request of the timed window.
struct Sample {
    ms: f64,
    reply: String,
}

/// A started and primed server, with a connection for `stats`.
struct Primed {
    running: Running,
    control: Client,
    /// Each priming request's milliseconds, in corpus order.
    prime_ms: Vec<f64>,
}

impl Primed {
    fn start(n: usize, programs: &[tiny::corpus::CorpusEntry]) -> Result<Primed, String> {
        let path = PathBuf::from(format!(".perfbench/serve-{}-{n}.sock", std::process::id()));
        let running = Running::start(path)?;
        let mut control = running.connect()?;
        let prime_ms = prime(&mut control, programs)?;
        Ok(Primed {
            running,
            control,
            prime_ms,
        })
    }

    fn stats(&mut self) -> Result<json::Json, String> {
        let reply = self.control.call("{\"op\":\"stats\"}")?;
        let parsed = json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
        parsed
            .get("stats")
            .cloned()
            .ok_or_else(|| format!("stats reply without stats: {reply}"))
    }

    fn stop(self) -> Result<(), String> {
        // The server ends only once every connection has closed.
        drop(self.control);
        self.running.stop()
    }
}

/// The run's count of answered requests, and the peak heap at the
/// `PEAK_AFTER_OPS`-th.
#[derive(Default)]
struct Progress {
    done: usize,
    peak: Option<u64>,
}

/// Answers a block on `server` from one closed-loop connection: send a
/// request, wait for its reply, send the next. The samples, and the
/// block's wall time in seconds.
fn answer_block(
    server: &Running,
    requests: &[Request],
    progress: &mut Progress,
) -> Result<(Vec<Sample>, f64), String> {
    let mut client = server.connect()?;
    let begin = Instant::now();
    let mut samples = Vec::with_capacity(requests.len());
    for request in requests {
        let start = Instant::now();
        let reply = client.call(&request.line)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        progress.done += 1;
        if progress.done == PEAK_AFTER_OPS {
            progress.peak = Some(crate::peak_bytes());
        }
        samples.push(Sample { ms, reply });
    }
    Ok((samples, begin.elapsed().as_secs_f64()))
}

/// Confines the calling thread, and so every thread it starts from then
/// on, to the first CPU it may run on. Returns that CPU.
fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let cpu: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().split([',', '-']).next()?.parse().ok())
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    // The process id is the id of its main thread, which runs this.
    let out = std::process::Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &std::process::id().to_string()])
        .output()
        .map_err(|e| format!("pinning to CPU {cpu} with taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "pinning to CPU {cpu} with taskset: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(cpu)
}

/// Fails if the server's cache, read before and after a block, came
/// near its caps or swept its bases during the block.
fn check_below_caps(before: &json::Json, after: &json::Json) -> Result<(), String> {
    let (b, a) = (
        json_counters(before.get("cache")),
        json_counters(after.get("cache")),
    );
    let read = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let swept = read(&a, "base_sweeps") - read(&b, "base_sweeps");
    let (entries, bases) = (read(&a, "entries"), read(&a, "base_forms"));
    if swept > 0.0 || entries >= MAX_ENTRIES || bases >= MAX_BASE_FORMS {
        return Err(format!(
            "a block left the solver cache with {entries} entries and {bases} base forms \
             after {swept} base sweeps (limits {MAX_ENTRIES}, {MAX_BASE_FORMS}, 0): \
             the run would time the cache's cap policy"
        ));
    }
    Ok(())
}

fn source_of<'a>(r: &'a Request, programs: &[tiny::corpus::CorpusEntry]) -> &'a str {
    match &r.variant {
        Some(v) => v,
        None => programs[r.program].source,
    }
}

/// The one-shot reports of the given requests, by source and kind.
fn references<'a>(
    requests: impl Iterator<Item = &'a Request>,
    programs: &'a [tiny::corpus::CorpusEntry],
) -> Result<HashMap<(&'a str, Kind), String>, String> {
    let mut wanted: BTreeMap<&str, BTreeSet<Kind>> = BTreeMap::new();
    for r in requests {
        wanted
            .entry(source_of(r, programs))
            .or_default()
            .insert(r.kind);
    }
    let mut out = HashMap::new();
    for (source, kinds) in wanted {
        let kinds: Vec<Kind> = kinds.into_iter().collect();
        for (kind, report) in kinds.iter().zip(calls::one_shot(source, &kinds)?) {
            out.insert((source, *kind), report);
        }
    }
    Ok(out)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cpu = pin_to_one_cpu()?;
    println!("{:<8} server and client pinned to CPU {cpu}", args.workload);
    let programs = tiny::corpus::all();
    let mut setup_s = Vec::new();
    let mut stream = None;
    let mut prime_ms = Vec::new();
    let mut servers = 0;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let made = Stream::generate(args.seed, &programs, BLOCKS)?;
        let primed = Primed::start(servers, &programs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        servers += 1;
        stream = Some(made);
        prime_ms = primed.prime_ms.clone();
        primed.stop()?;
    }
    let stream = stream.expect("at least one set-up");

    // The timed window: whole blocks, each on a freshly primed server,
    // until the blocks' time adds up to the run's.
    let mut progress = Progress::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut wall_s = 0.0;
    let mut live = LayerAcc::default();
    for (k, requests) in stream.requests.chunks(stream.block).enumerate() {
        if k > 0 && wall_s >= args.seconds.as_secs_f64() {
            break;
        }
        let mut primed = Primed::start(servers, &programs)?;
        servers += 1;
        let before = primed.stats()?;
        let (answered, block_s) = answer_block(&primed.running, requests, &mut progress)?;
        let after = primed.stats()?;
        primed.stop()?;
        check_below_caps(&before, &after)?;
        samples.extend(answered);
        wall_s += block_s;
        // Cache and row-store work of the live server over the block.
        for (section, prefix, gauges) in [
            ("cache", "omega.cache", layers::CACHE_GAUGES),
            ("rows", "omega.rows", layers::ROW_GAUGES),
        ] {
            let (b, a) = (
                json_counters(before.get(section)),
                json_counters(after.get(section)),
            );
            live.add_counters(prefix, &measure::counter_delta(&b, &a, gauges), gauges);
        }
    }

    // Check every reply against the one-shot rendering.
    let counted = &stream.requests[..samples.len()];
    let expected = references(counted.iter(), &programs)?;
    let mut failed = 0u64;
    for (idx, (s, r)) in samples.iter().zip(counted).enumerate() {
        let want = oracle::ok_line(idx, &expected[&(source_of(r, &programs), r.kind)]);
        if s.reply != want {
            failed += 1;
            eprintln!("perfbench: request {idx}: reply differs from the one-shot report");
        }
    }
    print_mix(&args.workload, counted, &programs, &prime_ms);
    let op_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();

    if !args.trace {
        return Ok(Timed {
            rounds: op_ms.chunks(stream.round).map(<[f64]>::to_vec).collect(),
            wall_s,
            setup_s,
            peak_bytes: progress.peak.unwrap_or_else(crate::peak_bytes),
            attempted: samples.len() as u64,
            failed,
        }
        .outcome());
    }

    // Traced: the first block again, on one thread, three times.
    let replayed = &stream.requests[..stream.block.min(samples.len())];
    let (service_ms, replay_failed, allocs) = replay_service(replayed, &programs, &expected)?;
    let mut tr = Tracer::new(Instant::now());
    let (mut values, ratio) = replay_layers(replayed, &programs, &mut tr)?;
    let e2e = measure::sorted(&op_ms);
    let service = measure::sorted(&service_ms);
    for (name, p) in [("p50", 0.50), ("p95", 0.95)] {
        let (total, serve) = (
            measure::percentile(&e2e, p),
            measure::percentile(&service, p),
        );
        values.insert(format!("server.service_ms.{name}"), serve);
        values.insert(format!("server.wait_ms.{name}"), total - serve);
    }
    values.insert(
        "alloc.per_op".into(),
        allocs as f64 / replayed.len().max(1) as f64,
    );
    live.ops = samples.len() as u64;
    values.extend(
        live.values()
            .into_iter()
            .filter(|(k, _)| k.starts_with("omega.")),
    );
    values.insert("trace.ops_per_s_ratio".into(), ratio);
    layers::print_extra_values(&args.workload, &values);
    println!(
        "{:<8} replayed {} requests on one thread: service p50 {:.3} ms, p95 {:.3} ms; \
         tracing overhead: traced at {ratio:.3} of the untraced throughput",
        args.workload,
        replayed.len(),
        measure::percentile(&service, 0.5),
        measure::percentile(&service, 0.95),
    );
    tr.write_out(&args.workload, args.seed);
    Ok(Outcome {
        attempted: (samples.len() + replayed.len()) as u64,
        failed: failed + replay_failed,
        metrics: layers::per_layer_metrics(&values, samples.len()),
    })
}

/// The share of the window's requests that are repeats, fresh variants
/// and `stepped_reset`-class programs, so a change that helps only one
/// kind of request can cite it.
fn print_mix(
    workload: &str,
    counted: &[Request],
    programs: &[tiny::corpus::CorpusEntry],
    prime_ms: &[f64],
) {
    let n = counted.len().max(1) as f64;
    let fresh = counted.iter().filter(|r| r.variant.is_some()).count() as f64;
    let slow: Vec<&str> = programs
        .iter()
        .zip(prime_ms)
        .filter(|(_, ms)| **ms > SLOW_MS)
        .map(|(e, _)| e.name)
        .collect();
    let in_slow = counted
        .iter()
        .filter(|r| slow.contains(&programs[r.program].name))
        .count() as f64;
    println!(
        "{workload:<8} mix of {} requests: repeats {:.1}%, fresh variants {:.1}%, \
         slow class (priming over {SLOW_MS} ms: {}) {:.1}%",
        counted.len(),
        100.0 * (n - fresh) / n,
        100.0 * fresh / n,
        slow.join(", "),
        100.0 * in_slow / n
    );
}

/// Replays `requests` through `Server::handle_line` on a freshly primed
/// server: per-request service milliseconds, failures, allocations.
fn replay_service(
    requests: &[Request],
    programs: &[tiny::corpus::CorpusEntry],
    expected: &HashMap<(&str, Kind), String>,
) -> Result<(Vec<f64>, u64, u64), String> {
    let server = Server::new(WORKERS, None);
    for e in programs {
        let line = format!("{{\"op\":\"analyze\",\"corpus\":\"{}\"}}", e.name);
        server.handle_line(&line).ok_or("no reply")?;
    }
    let mut service_ms = Vec::with_capacity(requests.len());
    let (mut failed, mut allocs) = (0u64, 0u64);
    for (idx, r) in requests.iter().enumerate() {
        let a = harness::alloc::thread_allocs();
        let t = Instant::now();
        let reply = server.handle_line(&r.line).ok_or("no reply")?;
        service_ms.push(t.elapsed().as_secs_f64() * 1e3);
        allocs += harness::alloc::thread_allocs() - a;
        let want = oracle::ok_line(idx, &expected[&(source_of(r, programs), r.kind)]);
        if reply.line != want {
            failed += 1;
            eprintln!("perfbench: replayed request {idx}: reply differs from the one-shot report");
        }
    }
    Ok((service_ms, failed, allocs))
}

/// Replays `requests` through the calls the server makes for them,
/// each twice, with spans and without, on two warm caches primed like
/// the server's. Which of the two runs first alternates, so drift and
/// warmth fall on both. The layer values of the traced runs, and
/// traced over untraced throughput.
fn replay_layers(
    requests: &[Request],
    programs: &[tiny::corpus::CorpusEntry],
    tr: &mut Tracer,
) -> Result<(BTreeMap<String, f64>, f64), String> {
    let caches = [(); 2].map(|()| Arc::new(omega::SolverCache::new()));
    tr.set_enabled(false);
    for cache in &caches {
        for e in programs {
            calls::op(tr, 0, e.source, Arc::clone(cache), &[])?;
        }
    }
    let mut layer = LayerAcc::default();
    let mut seconds = [0.0; 2];
    for (idx, r) in requests.iter().enumerate() {
        let source = source_of(r, programs);
        for traced in [idx % 2 == 0, idx % 2 == 1] {
            tr.set_enabled(traced);
            let mark = tr.len();
            let t = Instant::now();
            let cache = Arc::clone(&caches[usize::from(traced)]);
            let done = calls::op(tr, idx as u64, source, cache, &[r.kind])?;
            seconds[usize::from(traced)] += t.elapsed().as_secs_f64();
            if traced {
                layer.add_op(&tr.totals_since(mark), &AnalysisCounters::of(&done.stats));
            }
        }
    }
    Ok((layer.values(), seconds[0] / seconds[1]))
}
