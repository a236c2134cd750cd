//! What a correct output is: the committed goldens, the corpus-wide
//! parallelization pins, and the one-shot rendering for server replies.

/// `--all` and `--parallelize` reports of the programs with goldens.
pub const GOLDENS: &[(&str, &str, &str)] = &[
    (
        "cholsky",
        include_str!("../../tests/golden/cholsky_all.txt"),
        include_str!("../../tests/golden/cholsky_parallelize.txt"),
    ),
    (
        "gauss_jordan",
        include_str!("../../tests/golden/gauss_jordan_all.txt"),
        include_str!("../../tests/golden/gauss_jordan_parallelize.txt"),
    ),
];

/// Corpus programs with loops that only kill analysis makes
/// parallelizable; every other program has none.
pub const PINNED_NEWLY: &[(&str, usize)] =
    &[("example2", 1), ("pivot_reset", 1), ("stepped_reset", 1)];
/// Loops in the corpus, and how many of them are parallelizable.
pub const CORPUS_LOOPS: usize = 161;
pub const CORPUS_PARALLEL: usize = 93;

/// The counts on the `parallelize summary:` line of a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    pub loops: usize,
    pub parallel: usize,
    pub newly: usize,
}

/// Reads the summary line of a `--parallelize` report.
pub fn summary(report: &str) -> Option<Summary> {
    let line = report
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("parallelize summary: "))?;
    let field = |key: &str| -> Option<usize> {
        line.split([' ', '(', ')', ','])
            .find_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    };
    Some(Summary {
        loops: field("loops")?,
        parallel: field("parallelizable")?,
        newly: field("newly-parallelizable")?,
    })
}

/// Checks one program's `--all` and `--parallelize` reports against its
/// golden (if it has one) and its pin. Returns the summary it read.
pub fn check_program(name: &str, all: &str, parallelize: &str) -> Result<Summary, String> {
    if let Some((_, golden_all, golden_par)) = GOLDENS.iter().find(|(n, _, _)| *n == name) {
        if all != *golden_all {
            return Err(format!("{name}: --all report differs from its golden"));
        }
        if parallelize != *golden_par {
            return Err(format!(
                "{name}: --parallelize report differs from its golden"
            ));
        }
    }
    let s = summary(parallelize).ok_or_else(|| format!("{name}: no parallelize summary"))?;
    let pinned = PINNED_NEWLY
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, k)| *k);
    if s.newly != pinned {
        return Err(format!(
            "{name}: {} newly parallelizable loop(s), pinned {pinned}",
            s.newly
        ));
    }
    Ok(s)
}

/// The response line a server must send for request `id` whose one-shot
/// report is `report`.
pub fn ok_line(id: usize, report: &str) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"report\":\"{}\"}}",
        omega_repro::json::escape(report)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_golden_summary() {
        let s = summary(GOLDENS[0].2).expect("summary line");
        assert_eq!(
            s,
            Summary {
                loops: 18,
                parallel: 12,
                newly: 0
            }
        );
    }
}
