//! The run's result: operation counts and named metrics, printed as the
//! one-line JSON object the benchmark ends with.

/// One measured figure.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run attempted, what failed, and what it measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False once any output differed from the oracle.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Count one operation. A program error and a wrong answer both fail
    /// the operation; a wrong answer also clears `correct`.
    pub fn record(&mut self, result: &Result<(), OpError>) {
        self.attempted += 1;
        match result {
            Ok(()) => {}
            Err(OpError::Program(e)) => {
                self.failed += 1;
                eprintln!("operation failed: {e}");
            }
            Err(OpError::Wrong(e)) => {
                self.failed += 1;
                self.correct = false;
                eprintln!("wrong output: {e}");
            }
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a metric that could not be
                // computed reads 0.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print_summary(&self, workload: &str) {
        eprintln!(
            "{workload}: {} operations attempted, {} failed, outputs {}",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "WRONG" }
        );
        for m in &self.metrics {
            eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

/// Why an operation failed.
pub enum OpError {
    /// The program returned an error or its process died.
    Program(String),
    /// The program answered, and the answer differs from the oracle's.
    Wrong(String),
}

/// Median of the samples (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::new();
        o.record(&Ok(()));
        o.record(&Err(OpError::Wrong("x".into())));
        o.push("build_mb_s", "MB/s", 12.5);
        o.push("broken", "s", f64::NAN);
        assert_eq!(
            o.to_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"build_mb_s\": {\"value\": 12.5, \"unit\": \"MB/s\"}, \
             \"broken\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
