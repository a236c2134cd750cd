//! The `serve` request stream, made from the seed.
//!
//! The stream is a sequence of blocks, and a block is four rounds over
//! the corpus. In each round a quarter of the programs come as fresh
//! variants, which the server has never seen (cache misses, inserts,
//! base-intern growth), and the rest as repeats, which a primed server
//! answers from its warm cache; over a block every program comes three
//! times as a repeat and once as a variant. The seed picks, per block,
//! where its rounds start in the corpus and which programs are fresh in
//! which round, and per request the variant's shift and the report kind.
//!
//! Every block has the same make-up and nearly the same order, so runs
//! that cover whole blocks do the same work whatever the seed, and every
//! round holds each program once, so the latency percentiles of a round
//! rank the same mix of programs in every round.

use std::collections::HashSet;
use std::sync::Arc;

use harness::rng::Rng;
use omega_repro::{json, tiny};

use crate::calls::Kind;

/// Repeats of each corpus program per block, besides its one variant.
pub const REPEATS: usize = 3;

#[derive(Debug, Clone)]
pub struct Request {
    /// The corpus program it is, or is a variant of.
    pub program: usize,
    /// The variant's source; `None` for a repeat of the corpus program.
    pub variant: Option<Arc<str>>,
    pub kind: Kind,
    /// The request line, without its newline.
    pub line: String,
}

pub struct Stream {
    pub requests: Vec<Request>,
    /// Requests per block.
    pub block: usize,
    /// Requests per round: one per corpus program.
    pub round: usize,
}

impl Stream {
    /// `blocks` blocks of requests for the corpus `programs`. Every
    /// variant is checked with parse and sema here.
    pub fn generate(
        seed: u64,
        programs: &[tiny::corpus::CorpusEntry],
        blocks: usize,
    ) -> Result<Stream, String> {
        let mut rng = Rng::from_seed(seed);
        let mut seen: HashSet<String> = programs.iter().map(|e| e.source.to_string()).collect();
        let block = programs.len() * (REPEATS + 1);
        let mut requests = Vec::with_capacity(blocks * block);
        for _ in 0..blocks {
            let start = rng.gen_range_usize(0..programs.len());
            let phase = rng.gen_range_usize(0..=REPEATS);
            for round in 0..=REPEATS {
                for k in 0..programs.len() {
                    let program = (start + k) % programs.len();
                    let fresh = (program + round + phase).is_multiple_of(REPEATS + 1);
                    let variant: Option<Arc<str>> = if fresh {
                        let e = &programs[program];
                        let v = variant(e.source, &mut rng, &mut seen)
                            .ok_or_else(|| format!("no fresh variant of {}", e.name))?;
                        Some(v.into())
                    } else {
                        None
                    };
                    let kind = Kind::ALL[rng.gen_range_usize(0..Kind::ALL.len())];
                    let id = requests.len();
                    let line = request_line(id, programs[program].name, variant.as_deref(), kind);
                    requests.push(Request {
                        program,
                        variant,
                        kind,
                        line,
                    });
                }
            }
        }
        Ok(Stream {
            requests,
            block,
            round: programs.len(),
        })
    }
}

/// The request for one program and report kind.
pub fn request_line(id: usize, corpus: &str, source: Option<&str>, kind: Kind) -> String {
    let input = match source {
        Some(src) => format!("\"source\":\"{}\"", json::escape(src)),
        None => format!("\"corpus\":\"{corpus}\""),
    };
    let (op, options) = match kind {
        Kind::Text => ("analyze", ""),
        Kind::All => ("analyze", ",\"options\":{\"all\":true}"),
        Kind::Parallel => ("analyze", ",\"options\":{\"parallel\":true}"),
        Kind::Json => ("analyze", ",\"options\":{\"format\":\"json\"}"),
        Kind::Dot => ("analyze", ",\"options\":{\"format\":\"dot\"}"),
        Kind::Parallelize => ("parallelize", ""),
    };
    format!("{{\"id\":{id},\"op\":\"{op}\",{input}{options}}}")
}

/// A fresh variant of `source`: every integer literal in a statement or
/// loop header (not in `sym`, `assume` or declarations) moves up by the
/// same seeded shift, so subscripts, distances and bounds change while
/// the program keeps its shape. Retries, with larger shifts, until the
/// text is new and passes parse and sema.
fn variant(source: &str, rng: &mut Rng, seen: &mut HashSet<String>) -> Option<String> {
    for attempt in 0..64 {
        let v = shift_literals(source, rng.gen_range_i64(1..=4 + attempt));
        if seen.contains(&v) {
            continue;
        }
        let checked = tiny::Program::parse(&v)
            .ok()
            .and_then(|p| tiny::analyze(&p).ok());
        if checked.is_some() {
            seen.insert(v.clone());
            return Some(v);
        }
    }
    None
}

fn shift_literals(source: &str, shift: i64) -> String {
    let mut out = String::with_capacity(source.len() + 16);
    for line in source.split_inclusive('\n') {
        let code_len = ["--", "//"]
            .iter()
            .filter_map(|c| line.find(c))
            .min()
            .unwrap_or(line.len());
        let (code, comment) = line.split_at(code_len);
        let head = code.trim_start();
        if ["sym", "assume", "real", "int"]
            .iter()
            .any(|k| head.starts_with(k))
        {
            out.push_str(line);
            continue;
        }
        let bytes = code.as_bytes();
        let mut copied = 0;
        let mut i = 0;
        while i < bytes.len() {
            let starts_literal = bytes[i].is_ascii_digit()
                && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'));
            if !starts_literal {
                i += 1;
                continue;
            }
            let end = i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
            let value: i64 = code[i..end].parse().unwrap_or(0);
            out.push_str(&code[copied..i]);
            out.push_str(&(value + shift).to_string());
            copied = end;
            i = end;
        }
        out.push_str(&code[copied..]);
        out.push_str(comment);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_program_has_fresh_variants() {
        let programs = tiny::corpus::all();
        let a = Stream::generate(7, &programs, 2).expect("variants");
        let b = Stream::generate(7, &programs, 2).expect("variants");
        assert_eq!(a.requests.len(), 2 * a.block);
        let lines = |s: &Stream| {
            s.requests
                .iter()
                .map(|r| r.line.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&a), lines(&b), "same seed, same stream");
        let fresh = a.requests.iter().filter(|r| r.variant.is_some()).count();
        assert_eq!(fresh * (REPEATS + 1), a.requests.len());
    }
}
