//! Per-layer attribution: span times and the analysis' own counters,
//! summed over the traced ops and reported per op.

use std::collections::BTreeMap;

use omega_repro::depend;

use crate::measure::Metric;

/// The per-layer metrics a traced run reports, in order, with units.
/// Times and counts are per op unless the name says otherwise; the
/// `*_max_ms` metrics are the largest single record of the run, and
/// `entries`, `base_forms` and `live` are gauges, averaged over their
/// readings at the end of each traced pass (or `serve` block).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tiny.parse_ms", "ms"),
    ("tiny.sema_ms", "ms"),
    ("depend.analyze_ms", "ms"),
    ("depend.pairs.std_ms", "ms"),
    ("depend.refine_cover_ms", "ms"),
    ("depend.kill_ms", "ms"),
    ("depend.kill_max_ms", "ms"),
    ("depend.pair_max_ms", "ms"),
    ("depend.other_ms", "ms"),
    ("depend.pairs.count", "count"),
    ("depend.pairs.notest", "count"),
    ("depend.pairs.general", "count"),
    ("depend.pairs.split", "count"),
    ("depend.kill.tests", "count"),
    ("depend.kill.omega", "count"),
    ("depend.kill.killed", "count"),
    ("depend.prefilter.tested", "count"),
    ("depend.prefilter.skipped", "count"),
    ("depend.graph_ms", "ms"),
    ("render.text_ms", "ms"),
    ("render.parallelize_ms", "ms"),
    ("render.json_ms", "ms"),
    ("render.dot_ms", "ms"),
    ("omega.cache.hits", "count"),
    ("omega.cache.misses", "count"),
    ("omega.cache.inserts", "count"),
    ("omega.cache.hit_rate", "ratio"),
    ("omega.cache.full_canons", "count"),
    ("omega.cache.delta_canons", "count"),
    ("omega.cache.checkpoint_resumes", "count"),
    ("omega.cache.checkpoint_rebuilds", "count"),
    ("omega.cache.entries", "count"),
    ("omega.cache.base_forms", "count"),
    ("omega.cache.base_evicted", "count"),
    ("omega.rows.built", "count"),
    ("omega.rows.interns", "count"),
    ("omega.rows.live", "count"),
    ("alloc.per_op", "count"),
    ("server.service_ms.p50", "ms"),
    ("server.service_ms.p95", "ms"),
    ("server.wait_ms.p50", "ms"),
    ("server.wait_ms.p95", "ms"),
    ("trace.ops_per_s_ratio", "ratio"),
];

/// Cache fields that are gauges, not counters.
pub const CACHE_GAUGES: &[&str] = &["entries", "base_forms"];
/// Row-store fields that are gauges, not counters.
pub const ROW_GAUGES: &[&str] = &["live", "dead", "shards"];

/// What `depend::Stats` records about one analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisCounters {
    pub std_ns: u64,
    pub ext_ns: u64,
    pub kill_ns: u64,
    pub kill_max_ns: u64,
    pub pair_max_ns: u64,
    pub pairs: u64,
    pub notest: u64,
    pub general: u64,
    pub split: u64,
    pub kill_tests: u64,
    pub kill_omega: u64,
    pub killed: u64,
    pub prefilter_tested: u64,
    pub prefilter_skipped: u64,
}

impl AnalysisCounters {
    pub fn of(stats: &depend::Stats) -> AnalysisCounters {
        let mut c = AnalysisCounters::default();
        for p in &stats.pairs {
            c.std_ns += p.std_ns;
            c.ext_ns += p.ext_ns;
            c.pair_max_ns = c.pair_max_ns.max(p.ext_ns);
            c.pairs += 1;
            match p.class {
                depend::PairClass::NoTest => c.notest += 1,
                depend::PairClass::General => c.general += 1,
                depend::PairClass::Split => c.split += 1,
            }
        }
        for k in &stats.kills {
            c.kill_ns += k.kill_ns;
            c.kill_max_ns = c.kill_max_ns.max(k.kill_ns);
            c.kill_tests += 1;
            c.kill_omega += u64::from(k.consulted_omega);
            c.killed += u64::from(k.killed);
        }
        // Every field but `passed` is a reason the pre-filter skipped a
        // pair.
        let prefilter = crate::measure::debug_counters(&format!("{:?}", stats.prefilter));
        let tested: f64 = prefilter.values().sum();
        c.prefilter_tested = tested as u64;
        c.prefilter_skipped = (tested - prefilter.get("passed").copied().unwrap_or(0.0)) as u64;
        c
    }

    pub fn add(&mut self, o: &AnalysisCounters) {
        self.std_ns += o.std_ns;
        self.ext_ns += o.ext_ns;
        self.kill_ns += o.kill_ns;
        self.kill_max_ns = self.kill_max_ns.max(o.kill_max_ns);
        self.pair_max_ns = self.pair_max_ns.max(o.pair_max_ns);
        self.pairs += o.pairs;
        self.notest += o.notest;
        self.general += o.general;
        self.split += o.split;
        self.kill_tests += o.kill_tests;
        self.kill_omega += o.kill_omega;
        self.killed += o.killed;
        self.prefilter_tested += o.prefilter_tested;
        self.prefilter_skipped += o.prefilter_skipped;
    }
}

const MS: f64 = 1e6;

/// Per-layer totals over the traced ops of a run.
#[derive(Debug, Default)]
pub struct LayerAcc {
    pub ops: u64,
    pub span_ns: BTreeMap<&'static str, u64>,
    pub analysis: AnalysisCounters,
    pub allocs: u64,
    /// Solver-cache and row-store counter deltas, summed, by metric
    /// name.
    pub counters: BTreeMap<String, f64>,
    /// Gauge readings summed, with the number of readings.
    pub gauges: BTreeMap<String, (f64, u64)>,
}

impl LayerAcc {
    pub fn add_op(&mut self, spans: &BTreeMap<&'static str, u64>, analysis: &AnalysisCounters) {
        self.ops += 1;
        for (name, ns) in spans {
            *self.span_ns.entry(name).or_insert(0) += ns;
        }
        self.analysis.add(analysis);
    }

    /// Adds counter deltas (`prefix` is `omega.cache` or `omega.rows`)
    /// and gauge readings.
    pub fn add_counters(&mut self, prefix: &str, delta: &BTreeMap<String, f64>, gauges: &[&str]) {
        for (k, &v) in delta {
            let name = format!("{prefix}.{k}");
            if gauges.contains(&k.as_str()) {
                let g = self.gauges.entry(name).or_insert((0.0, 0));
                g.0 += v;
                g.1 += 1;
            } else {
                *self.counters.entry(name).or_insert(0.0) += v;
            }
        }
    }

    /// Every layer value this accumulator knows, by metric name.
    pub fn values(&self) -> BTreeMap<String, f64> {
        let n = self.ops.max(1) as f64;
        let a = &self.analysis;
        let span = |name: &str| self.span_ns.get(name).copied().unwrap_or(0) as f64 / n / MS;
        let mut v = BTreeMap::new();
        for (name, metric) in [
            ("tiny.parse", "tiny.parse_ms"),
            ("tiny.sema", "tiny.sema_ms"),
            ("depend.analyze", "depend.analyze_ms"),
            ("depend.graph", "depend.graph_ms"),
            ("render.text", "render.text_ms"),
            ("render.parallelize", "render.parallelize_ms"),
            ("render.json", "render.json_ms"),
            ("render.dot", "render.dot_ms"),
        ] {
            v.insert(metric.to_string(), span(name));
        }
        let per_op = |x: u64| x as f64 / n;
        v.insert("depend.pairs.std_ms".into(), per_op(a.std_ns) / MS);
        v.insert(
            "depend.refine_cover_ms".into(),
            per_op(a.ext_ns.saturating_sub(a.std_ns)) / MS,
        );
        v.insert("depend.kill_ms".into(), per_op(a.kill_ns) / MS);
        v.insert("depend.kill_max_ms".into(), a.kill_max_ns as f64 / MS);
        v.insert("depend.pair_max_ms".into(), a.pair_max_ns as f64 / MS);
        v.insert(
            "depend.other_ms".into(),
            span("depend.analyze") - per_op(a.ext_ns + a.kill_ns) / MS,
        );
        for (name, x) in [
            ("depend.pairs.count", a.pairs),
            ("depend.pairs.notest", a.notest),
            ("depend.pairs.general", a.general),
            ("depend.pairs.split", a.split),
            ("depend.kill.tests", a.kill_tests),
            ("depend.kill.omega", a.kill_omega),
            ("depend.kill.killed", a.killed),
            ("depend.prefilter.tested", a.prefilter_tested),
            ("depend.prefilter.skipped", a.prefilter_skipped),
            ("alloc.per_op", self.allocs),
        ] {
            v.insert(name.to_string(), per_op(x));
        }
        for (k, x) in &self.counters {
            v.insert(k.clone(), x / n);
        }
        let counter = |k: &str| self.counters.get(k).copied().unwrap_or(0.0);
        let hits = counter("omega.cache.hits");
        let lookups = hits + counter("omega.cache.misses");
        v.insert(
            "omega.cache.hit_rate".into(),
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        for (k, (sum, count)) in &self.gauges {
            v.insert(k.clone(), sum / (*count).max(1) as f64);
        }
        v
    }
}

/// Prints the layer values that the result line leaves out, such as
/// counters outside `PER_LAYER`.
pub fn print_extra_values(workload: &str, values: &BTreeMap<String, f64>) {
    for (k, v) in values {
        if !PER_LAYER.iter().any(|(name, _)| name == k) {
            println!("{workload:<8} {k:<32} {v:>14.4}");
        }
    }
}

/// The `PER_LAYER` metrics out of `values`; a layer the workload does
/// not reach (or a counter the program no longer has) reads 0.
pub fn per_layer_metrics(values: &BTreeMap<String, f64>, samples: usize) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            Metric::new(
                name,
                values.get(*name).copied().unwrap_or(0.0),
                unit,
                samples,
            )
        })
        .collect()
}
