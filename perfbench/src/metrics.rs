//! The metrics a run reports, and the result line that carries them.

use crate::machine::{peak_rss_mb, Machine};
use crate::script::Digest;
use crate::stats::{self, supported_percentile};
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_p50_ms", "ms"),
    ("cpu_p90_ms", "ms"),
    ("ops_per_cpu_s", "ops/s"),
    ("success_share", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("test_acc_pct", "%"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_ms", "ms"),
    ("metapath.compose_ms", "ms"),
    ("metapath.paths", "count"),
    ("metapath.composed_nnz", "count"),
    ("selection.ms", "ms"),
    ("father.ms", "ms"),
    ("leaf.ms", "ms"),
    ("assemble.ms", "ms"),
    ("context.paths.hit_share", "ratio"),
    ("context.factors.hit_share", "ratio"),
    ("context.composed.hit_share", "ratio"),
    ("context.oriented.hit_share", "ratio"),
    ("context.influence.hit_share", "ratio"),
    ("context.diversity.hit_share", "ratio"),
    ("context.propagated.hit_share", "ratio"),
    ("context.cache_mb", "MiB"),
    ("context.evictions", "count"),
    ("registry.hit_share", "ratio"),
    ("registry.resident_mb", "MiB"),
    ("registry.contexts", "count"),
    ("registry.delta_reused_share", "ratio"),
    ("registry.duplicate_computes", "count"),
    ("serve.fast_path_share", "ratio"),
    ("serve.memo_hit_share", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.overloaded", "count"),
    ("serve.worker_panics", "count"),
    ("pool.executed", "count"),
    ("pool.peak_depth", "count"),
    ("pool.rejected_full", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.reply_bytes", "bytes"),
    ("tcp.ping_p50_us", "us"),
    ("method.FreeHGC.p50_ms", "ms"),
    ("method.Random-HG.p50_ms", "ms"),
    ("method.Herding-HG.p50_ms", "ms"),
    ("method.K-Center-HG.p50_ms", "ms"),
    ("method.Coarsening-HG.p50_ms", "ms"),
    ("method.HGCond.p50_ms", "ms"),
    ("method.GCond.p50_ms", "ms"),
    ("class.memo.p50_ms", "ms"),
    ("class.warm.p50_ms", "ms"),
    ("class.delta.p50_ms", "ms"),
    ("class.cold.p50_ms", "ms"),
    ("propagate.ms", "ms"),
    ("train.ms", "ms"),
    ("train.epochs", "count"),
    ("predict.ms", "ms"),
    ("wall.latency_p50_ms", "ms"),
    ("wall.latency_p90_ms", "ms"),
    ("wall.throughput_ops", "ops/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("machine.available_parallelism", "count"),
    ("machine.effective_parallelism", "count"),
    ("machine.freehgc_threads", "count"),
];

/// Everything one run of a workload observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output mismatches; any one makes the run incorrect.
    pub problems: Vec<String>,
    pub attempted: u64,
    /// Typed error replies, transport errors and panics.
    pub failed: u64,
    /// Wall-clock latency of every successful operation of the
    /// measured phase.
    pub latencies_ms: Vec<f64>,
    /// Process CPU time of every successful operation, in the same
    /// order (see [`crate::machine::process_cpu_ms`]).
    pub cpu_ms: Vec<f64>,
    /// Process CPU time of every attempted operation, summed.
    pub cpu_spent_ms: f64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Process CPU time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each set-up repetition.
    pub setup_wall_s: Vec<f64>,
    pub test_acc_pct: f64,
    pub script_digest: Digest,
    /// Outputs digested (successful operations).
    pub outputs: u64,
    /// Digest of every output fingerprint, in script order.
    pub digest_all: Digest,
    /// Digest of each log's first [`HEAD`] outputs only — equal
    /// across runs of one seed, whatever the machine's speed.
    pub digest_head: Digest,
    /// Per-layer figures (traced runs).
    pub layers: BTreeMap<String, f64>,
}

/// Outputs per log folded into [`Outcome::digest_head`].
pub const HEAD: usize = 32;

/// The outputs of one client, in script order.
#[derive(Debug, Default)]
pub struct OutputLog {
    pub all: Digest,
    pub head: Digest,
    pub n: usize,
}

impl OutputLog {
    /// Records the `index`-th script operation's output fingerprint.
    pub fn push(&mut self, index: usize, fp: (u64, u64)) {
        let fold = |d: &mut Digest| {
            d.u64(index as u64);
            d.u64(fp.0);
            d.u64(fp.1);
        };
        fold(&mut self.all);
        if self.n < HEAD {
            fold(&mut self.head);
        }
        self.n += 1;
    }
}

impl Outcome {
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Folds output logs, in order.
    pub fn absorb_outputs(&mut self, logs: &[OutputLog]) {
        for log in logs {
            self.digest_all.u64(log.all.value());
            self.digest_head.u64(log.head.value());
            self.outputs += log.n as u64;
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    /// Records one operation's wall and CPU time; `ok` when it
    /// succeeded.
    pub fn op(&mut self, ok: bool, wall_ms: f64, cpu_ms: f64) {
        self.attempted += 1;
        self.cpu_spent_ms += cpu_ms;
        if ok {
            self.latencies_ms.push(wall_ms);
            self.cpu_ms.push(cpu_ms);
        } else {
            self.failed += 1;
        }
    }

    /// Folds a client's operations into the run's.
    pub fn absorb_ops(&mut self, client: Outcome) {
        self.attempted += client.attempted;
        self.failed += client.failed;
        self.latencies_ms.extend(client.latencies_ms);
        self.cpu_ms.extend(client.cpu_ms);
        self.cpu_spent_ms += client.cpu_spent_ms;
        self.problems.extend(client.problems);
    }

    /// The wall-clock view of the measured phase, printed beside the
    /// result: p50 and p90 latency (ms) and successful operations per
    /// second. `None` without samples.
    pub fn wall(&self) -> Option<(f64, f64, f64)> {
        let n = self.latencies_ms.len();
        Some((
            stats::nearest_rank(&self.latencies_ms, 50.0)?,
            stats::nearest_rank(&self.latencies_ms, 90.0)?,
            n as f64 / self.wall_s,
        ))
    }

    fn end_to_end(&self) -> Result<Vec<f64>, String> {
        let n = self.cpu_ms.len();
        let pct = |p: f64| {
            supported_percentile(&self.cpu_ms, p).ok_or(format!(
                "{n} successful samples cannot support p{p}: fewer than {} beyond it",
                stats::MIN_BEYOND
            ))
        };
        Ok(vec![
            stats::p50(&self.setup_s),
            pct(50.0)?,
            pct(90.0)?,
            n as f64 / (self.cpu_spent_ms / 1e3),
            stats::share(self.attempted - self.failed, self.attempted),
            peak_rss_mb().ok_or("no /proc/self/status to read VmHWM from")?,
            self.test_acc_pct,
        ])
    }

    /// The result line: one JSON object.
    pub fn result_line(&self, machine: &Machine, traced: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut pairs: Vec<(&str, f64, &str)> = Vec::new();
        if traced {
            let mut layers = self.layers.clone();
            let (p50, p90, ops) = self.wall().unwrap_or_default();
            for (name, value) in [
                ("wall.latency_p50_ms", p50),
                ("wall.latency_p90_ms", p90),
                ("wall.throughput_ops", ops),
                ("machine.available_parallelism", machine.available as f64),
                ("machine.effective_parallelism", machine.effective),
                ("machine.freehgc_threads", machine.freehgc_threads as f64),
            ] {
                layers.insert(name.to_string(), value);
            }
            for &(name, unit) in PER_LAYER {
                pairs.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
            }
        } else {
            for (&(name, unit), v) in END_TO_END.iter().zip(self.end_to_end()?) {
                pairs.push((name, v, unit));
            }
        }
        let mut metrics = Vec::with_capacity(pairs.len());
        for (name, value, unit) in pairs {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        // The file is written one metric per line; pull name and unit
        // out of the lines of the requested section.
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let end = body.find(']').expect("section end");
        body[..end]
            .lines()
            .filter_map(|l| {
                let field = |key: &str| {
                    let at = l.find(&format!("\"{key}\": \""))? + key.len() + 5;
                    Some(l[at..at + l[at..].find('"')?].to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
    }

    /// 100 successes taking 1..=100 ms of CPU (and twice that of wall
    /// time), and 20 failures taking 10 ms of CPU each.
    fn sample_outcome() -> Outcome {
        let mut o = Outcome {
            wall_s: 10.0,
            setup_s: vec![0.3, 0.1, 0.2],
            test_acc_pct: 80.0,
            ..Default::default()
        };
        for ms in 1..=100 {
            o.op(true, 2.0 * f64::from(ms), f64::from(ms));
        }
        for _ in 0..20 {
            o.op(false, 99.0, 10.0);
        }
        o
    }

    #[test]
    fn typed_errors_count_against_success() {
        let o = sample_outcome();
        assert_eq!((o.attempted, o.failed), (120, 20));
        let e2e = o.end_to_end().unwrap();
        assert_eq!(e2e[0], 0.2, "median set-up time");
        assert_eq!(e2e[1], 50.0, "CPU percentiles come from successes only");
        assert_eq!(e2e[2], 90.0);
        // 5050 ms of CPU on successes plus 200 ms on failures.
        assert_eq!(e2e[3], 100.0 / 5.25, "successes per CPU-second spent");
        assert_eq!(e2e[4], 100.0 / 120.0, "20 failed of 120 attempted");
        assert_eq!(o.wall(), Some((100.0, 180.0, 10.0)));
    }

    #[test]
    fn clients_fold_into_the_run() {
        let mut run = Outcome::default();
        run.absorb_ops(sample_outcome());
        run.absorb_ops(sample_outcome());
        assert_eq!((run.attempted, run.failed), (240, 40));
        assert_eq!(run.cpu_ms.len(), 200);
        assert_eq!(run.cpu_spent_ms, 2.0 * 5250.0);
    }

    #[test]
    fn too_few_samples_print_no_result() {
        let mut o = sample_outcome();
        o.cpu_ms.truncate(99);
        let m = Machine {
            available: 2,
            freehgc_threads: 0,
            effective: 1.0,
        };
        assert!(o.result_line(&m, false).is_err());
        // Layer metrics do not need latency samples.
        let line = o.result_line(&m, true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 120, \"failed\": 20"));
        assert!(
            line.contains("\"machine.available_parallelism\": {\"value\": 2, \"unit\": \"count\"}")
        );
        assert!(line.contains("\"wall.latency_p50_ms\": {\"value\": 100, \"unit\": \"ms\"}"));
    }

    #[test]
    fn output_head_stops_growing() {
        let mut a = OutputLog::default();
        let mut b = OutputLog::default();
        for i in 0..HEAD + 5 {
            a.push(i, (i as u64, 1));
            b.push(i, (i as u64, 1));
        }
        b.push(HEAD + 5, (9, 9));
        assert_eq!(a.head, b.head);
        assert_ne!(a.all, b.all);
        let mut o = Outcome::default();
        o.absorb_outputs(&[a, b]);
        assert_eq!(o.outputs, 2 * (HEAD as u64 + 5) + 1);
    }
}
