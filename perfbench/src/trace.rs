//! In-memory spans around the public calls the benchmark makes.
//!
//! The benchmark times each layer from outside: a span opens before a
//! call into `tiny`, `depend` or the renderers and closes
//! when it returns. Spans stay in memory and are written out as JSON
//! lines when the run ends. A disabled tracer records nothing, so the
//! traced and untraced loops run the same code.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to; every span of one op shares it.
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled: false,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later ones; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total nanoseconds per span name over the spans from `mark` on.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans[mark..] {
            *out.entry(s.name).or_insert(0) += s.ns();
        }
        out
    }

    /// Writes one JSON object per span to
    /// `.perfbench/trace-WORKLOAD-seedN.jsonl` in the working directory.
    pub fn write_out(&self, workload: &str, seed: u64) {
        let path = PathBuf::from(format!(".perfbench/trace-{workload}-seed{seed}.jsonl"));
        let write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for (id, s) in self.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.op
                )?;
            }
            out.flush()
        };
        match write() {
            Ok(()) => println!("{workload:<8} spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
}
