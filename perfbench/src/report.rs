//! What a workload run hands back: metrics, correctness checks and
//! operation counts, and the JSON line the benchmark ends with.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Correctness checks and operation counts of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (plans, query runs or requests).
    pub attempted: u64,
    /// Operations that failed: sheds, admission, planning and session
    /// errors. A failed operation counts as missing any latency limit.
    pub failed: u64,
    /// `(description, passed)` for every correctness check made.
    pub checks: Vec<(String, bool)>,
}

impl Ledger {
    /// Record a check.
    pub fn check(&mut self, passed: bool, what: impl Into<String>) {
        self.checks.push((what.into(), passed));
    }

    /// Record an operation's outcome, returning its value when it
    /// succeeded.
    pub fn op<T, E: std::fmt::Display>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("operation failed: {e}");
                }
                None
            }
        }
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(ledger: &Ledger, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        ledger.correct(),
        ledger.attempted,
        ledger.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_operations_make_the_run_incorrect() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.op::<_, String>(Ok(3)), Some(3));
        ledger.check(true, "fine");
        assert!(ledger.correct());
        assert_eq!(ledger.op::<u8, _>(Err("shed")), None);
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert!(!ledger.correct());
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut ledger = Ledger::default();
        ledger.op::<_, String>(Ok(()));
        let line = json_line(
            &ledger,
            &[metric("p50_ms", 1.25, "ms"), metric("qps", 800.0, "1/s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"qps\": {\"value\": 800, \"unit\": \"1/s\"}}}"
        );
    }
}
