//! The public entry points a `tinydep` user reaches, each wrapped in a
//! span: front end, dependence analysis and the report renderers.
//!
//! Only the `Config::extended()` preset and `threads` are used, so a
//! switch that a later change deletes cannot break the benchmark.

use std::sync::Arc;

use omega_repro::server::{render_text_report, ReportView};
use omega_repro::{depend, omega, tiny};

use crate::trace::Tracer;

/// The kinds of report a request asks for, as `tinydep` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// The default text report.
    Text,
    /// `--all`.
    All,
    /// `--parallel`.
    Parallel,
    /// `--json`.
    Json,
    /// `--dot`.
    Dot,
    /// `--parallelize`.
    Parallelize,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Text,
        Kind::All,
        Kind::Parallel,
        Kind::Json,
        Kind::Dot,
        Kind::Parallelize,
    ];
}

/// The one configuration every analysis runs with: the paper's extended
/// analysis on one thread.
pub fn config() -> depend::Config {
    depend::Config {
        threads: 1,
        ..depend::Config::extended()
    }
}

/// Parses and checks a `tiny` program.
pub fn front_end(
    tr: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    source: &str,
) -> Result<(tiny::Program, tiny::ProgramInfo), String> {
    let program = tr
        .span("tiny.parse", op, parent, || tiny::Program::parse(source))
        .map_err(|e| format!("parse: {e}"))?;
    let info = tr
        .span("tiny.sema", op, parent, || tiny::analyze(&program))
        .map_err(|e| format!("sema: {e}"))?;
    Ok((program, info))
}

/// Runs the extended analysis against `cache`.
fn analyze(
    tr: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    info: &tiny::ProgramInfo,
    cache: Arc<omega::SolverCache>,
) -> Result<depend::Analysis, String> {
    tr.span("depend.analyze", op, parent, || {
        depend::analyze_program_with_cache(info, &config(), Some(cache))
    })
    .map_err(|e| format!("analysis: {e}"))
}

/// Renders one report exactly as one-shot `tinydep` prints it.
fn render(
    tr: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    kind: Kind,
    program: &tiny::Program,
    info: &tiny::ProgramInfo,
    analysis: &depend::Analysis,
) -> String {
    let view = ReportView {
        all: kind == Kind::All,
        parallel: kind == Kind::Parallel,
        ..ReportView::default()
    };
    match kind {
        Kind::Text | Kind::All | Kind::Parallel => tr.span("render.text", op, parent, || {
            render_text_report(info, analysis, &view)
        }),
        Kind::Json | Kind::Dot | Kind::Parallelize => {
            let graph = tr.span("depend.graph", op, parent, || {
                depend::DepGraph::new(info, analysis)
            });
            match kind {
                Kind::Json => tr.span("render.json", op, parent, || {
                    depend::report::to_json(&graph)
                }),
                Kind::Dot => tr.span("render.dot", op, parent, || {
                    let opts = depend::dot::DotOptions {
                        antis: false,
                        outputs: false,
                        dead: true,
                    };
                    depend::dot::to_dot(&graph, &opts)
                }),
                _ => tr.span("render.parallelize", op, parent, || {
                    depend::render_parallelize_report(program, &graph)
                }),
            }
        }
    }
}

/// What one op hands back.
pub struct Done {
    /// One report per requested kind, in order.
    pub reports: Vec<String>,
    pub stats: depend::Stats,
}

/// One op, in a span named `op`: front end, extended analysis against
/// `cache`, then the reports of `kinds`. Every workload runs its ops
/// (and its references, untraced) through this function.
pub fn op(
    tr: &mut Tracer,
    op: u64,
    source: &str,
    cache: Arc<omega::SolverCache>,
    kinds: &[Kind],
) -> Result<Done, String> {
    let id = tr.open("op", op, None);
    let (program, info) = front_end(tr, op, id, source)?;
    let analysis = analyze(tr, op, id, &info, cache)?;
    let reports = kinds
        .iter()
        .map(|&k| render(tr, op, id, k, &program, &info, &analysis))
        .collect();
    tr.close(id);
    Ok(Done {
        reports,
        stats: analysis.stats,
    })
}

/// A cold one-shot rendering with a fresh cache, untraced: the
/// reference a server response must match byte for byte.
pub fn one_shot(source: &str, kinds: &[Kind]) -> Result<Vec<String>, String> {
    let mut tr = Tracer::new(std::time::Instant::now());
    let cache = Arc::new(omega::SolverCache::new());
    Ok(op(&mut tr, 0, source, cache, kinds)?.reports)
}
