//! Trajectory analysis and the perf regression gate.
//!
//! `results/BENCH_PRDRB.json` is an append-only history of perf and
//! resilience runs (see [`crate::perf`]). This module owns the other
//! half of that contract: parsing the trajectory back out and deciding
//! whether the *latest* run regressed against its own recent history.
//!
//! The gate compares the newest record against the median of up to
//! [`GATE_WINDOW`] trailing *comparable* records — same `quick` flag and
//! same `host` for perf runs (numbers from different machines or kernel
//! sizes are not comparable), same `fault_at_ms` and `host` for
//! resilience runs. Kernels match their baselines on name *and* unit:
//! a kernel that starts counting something else (calendar events →
//! delivered packets) has no comparable history, so it re-enters
//! fail-soft as a new kernel. A kernel regresses when its `per_sec`
//! drops more than [`GATE_THRESHOLD_PCT`] below the baseline median; a
//! resilience policy regresses when its `out_of_zone_ms` rises more than
//! the same threshold above it. With fewer than [`GATE_MIN_BASELINE`]
//! comparable perf baselines the gate reports deltas but cannot fail —
//! a fresh machine needs a couple of runs to establish its own floor.
//!
//! Parsing is hand-rolled like the writer (no serde, DESIGN §7). Run
//! records are extracted by brace depth, which doubles as corrupt-tail
//! recovery: a record truncated mid-write (power loss before the atomic
//! rename existed) never closes its braces and is silently dropped, so
//! the next append re-emits a well-formed document from the surviving
//! prefix.

/// Regression threshold, percent. A kernel more than this much below
/// (or a recovery time more than this much above) the baseline median
/// fails the gate.
pub const GATE_THRESHOLD_PCT: f64 = 15.0;
/// How many trailing comparable records form the baseline window.
pub const GATE_WINDOW: usize = 5;
/// Minimum comparable perf baselines before the gate may fail the
/// build; below this it is advisory. Resilience records need one.
pub const GATE_MIN_BASELINE: usize = 2;

/// Which shape of run record this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A `repro bench` kernel-throughput record.
    Perf,
    /// A fault-injection recovery record (`"kind": "resilience"`).
    Resilience,
}

/// One kernel measurement inside a perf record.
#[derive(Debug, Clone)]
pub struct KernelSample {
    /// Kernel name (`event_churn_wheel`, `mesh_hotspot`, ...).
    pub name: String,
    /// What the kernel counts (`events`, `packets`, `messages`); empty
    /// for records written before units were recorded.
    pub unit: String,
    /// Throughput, higher is better.
    pub per_sec: f64,
}

/// One policy measurement inside a resilience record.
#[derive(Debug, Clone)]
pub struct PolicySample {
    /// Policy label (`drb`, `pr-drb`, ...).
    pub policy: String,
    /// Time spent outside the latency zone after the fault (ms),
    /// lower is better.
    pub out_of_zone_ms: f64,
}

/// One parsed run record from the trajectory.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Perf or resilience.
    pub kind: RecordKind,
    /// The `--quick` flag the run was taken with.
    pub quick: bool,
    /// Sanitized host tag, if the record carries one (records written
    /// before the gate existed do not, and are never used as baselines).
    pub host: Option<String>,
    /// Fault time for resilience records.
    pub fault_at_ms: Option<f64>,
    /// Kernel samples (perf records).
    pub kernels: Vec<KernelSample>,
    /// Policy samples (resilience records).
    pub policies: Vec<PolicySample>,
}

/// Pull the individual run records out of a trajectory document.
/// Understands the v2 layout (objects inside `"runs": [...]`, extracted
/// by brace depth — safe because no string field ever contains a brace;
/// the writer sanitizes `host`) and the legacy v1 layout (one bare
/// object per file), carried over verbatim as the first entry. An
/// unterminated trailing record (torn write) is dropped.
pub fn split_runs(text: &str) -> Vec<String> {
    if let Some(key) = text.find("\"runs\"") {
        let Some(open) = text[key..].find('[') else {
            return Vec::new();
        };
        let body = &text[key + open..];
        let mut runs = Vec::new();
        let mut depth = 0i32;
        let mut start = None;
        for (i, c) in body.char_indices() {
            match c {
                '{' => {
                    if depth == 0 {
                        start = Some(i);
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        if let Some(s) = start.take() {
                            runs.push(body[s..=i].to_string());
                        }
                    }
                }
                ']' if depth == 0 => break,
                _ => {}
            }
        }
        runs
    } else if text.trim_start().starts_with('{') {
        vec![text.trim().to_string()]
    } else {
        Vec::new()
    }
}

/// Compose the full trajectory document from prior run records plus the
/// newly rendered one (the inverse of [`split_runs`]).
pub fn trajectory_json(prior: &[String], new_run: &str) -> String {
    let mut out = String::from("{\n  \"schema\": \"prdrb-bench-v2\",\n  \"runs\": [\n");
    for r in prior {
        out.push_str("    ");
        out.push_str(r.trim());
        out.push_str(",\n");
    }
    out.push_str(new_run);
    out.push_str("\n  ]\n}\n");
    out
}

/// The text after `"<key>":` with surrounding whitespace skipped, or
/// None. The needle includes both quotes, so `"kernel"` never matches
/// inside `"kernels"`.
fn field_tail<'a>(scope: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = scope.find(&needle)?;
    let rest = scope[at + needle.len()..].trim_start();
    let rest = rest.strip_prefix(':')?;
    Some(rest.trim_start())
}

fn str_field(scope: &str, key: &str) -> Option<String> {
    let rest = field_tail(scope, key)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn num_field(scope: &str, key: &str) -> Option<f64> {
    let rest = field_tail(scope, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn bool_field(scope: &str, key: &str) -> Option<bool> {
    let rest = field_tail(scope, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Every sub-object of `record` that carries string field `tag`,
/// yielded as the slice from the tag to the object's closing brace —
/// enough scope to read the sibling numeric fields.
fn tagged_objects<'a>(record: &'a str, tag: &str) -> Vec<&'a str> {
    let needle = format!("\"{tag}\"");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = record[from..].find(&needle) {
        let start = from + at;
        let end = record[start..]
            .find('}')
            .map(|e| start + e)
            .unwrap_or(record.len());
        out.push(&record[start..end]);
        from = end.max(start + needle.len());
    }
    out
}

/// Parse one run record. Returns None for records that carry neither
/// kernels nor policies (nothing to gate on).
pub fn parse_run(record: &str) -> Option<RunRecord> {
    // Top-level scalar fields live before the first array opens;
    // scoping the search there keeps e.g. a policy label "quick" from
    // shadowing the record's own flag.
    let head = &record[..record.find('[').unwrap_or(record.len())];
    let kind = if str_field(head, "kind").as_deref() == Some("resilience") {
        RecordKind::Resilience
    } else {
        RecordKind::Perf
    };
    let kernels: Vec<KernelSample> = tagged_objects(record, "kernel")
        .into_iter()
        .filter_map(|obj| {
            Some(KernelSample {
                name: str_field(obj, "kernel")?,
                unit: str_field(obj, "unit").unwrap_or_default(),
                per_sec: num_field(obj, "per_sec")?,
            })
        })
        .collect();
    let policies: Vec<PolicySample> = tagged_objects(record, "policy")
        .into_iter()
        .filter_map(|obj| {
            Some(PolicySample {
                policy: str_field(obj, "policy")?,
                out_of_zone_ms: num_field(obj, "out_of_zone_ms")?,
            })
        })
        .collect();
    if kernels.is_empty() && policies.is_empty() {
        return None;
    }
    Some(RunRecord {
        kind,
        quick: bool_field(head, "quick").unwrap_or(false),
        host: str_field(head, "host"),
        fault_at_ms: num_field(head, "fault_at_ms"),
        kernels,
        policies,
    })
}

/// One gate comparison line.
#[derive(Debug, Clone)]
pub struct GateLine {
    /// Kernel or policy name.
    pub label: String,
    /// The latest run's value.
    pub current: f64,
    /// Median of the baseline window.
    pub baseline: f64,
    /// Percent change vs baseline (sign follows the raw ratio; the
    /// regression direction depends on the metric).
    pub delta_pct: f64,
    /// True when the change crosses the threshold in the bad direction.
    pub regressed: bool,
}

/// The gate's verdict over the latest trajectory record.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Per-kernel / per-policy comparisons.
    pub lines: Vec<GateLine>,
    /// Comparable baseline records found.
    pub baselines: usize,
    /// True when there were too few baselines to enforce — deltas are
    /// reported but [`GateReport::failed`] stays false.
    pub advisory: bool,
    /// Context that is not a comparison (why the gate is advisory, what
    /// was excluded, ...).
    pub notes: Vec<String>,
}

impl GateReport {
    /// True when the gate should fail the build.
    pub fn failed(&self) -> bool {
        !self.advisory && self.lines.iter().any(|l| l.regressed)
    }

    /// Regressed lines.
    pub fn regressions(&self) -> usize {
        self.lines.iter().filter(|l| l.regressed).count()
    }

    /// Human rendering — also the `results/BENCH_GATE.txt` artifact.
    pub fn render(&self) -> String {
        let mut out = format!(
            "==== perf gate (±{GATE_THRESHOLD_PCT}% vs median of ≤{GATE_WINDOW} prior runs) ====\n"
        );
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        for l in &self.lines {
            out.push_str(&format!(
                "  [{}] {:<24} {:>14.1} vs baseline {:>14.1}  ({:+.1}%)\n",
                if l.regressed { "!!" } else { "ok" },
                l.label,
                l.current,
                l.baseline,
                l.delta_pct,
            ));
        }
        out.push_str(&format!(
            "gate: {} comparison(s), {} baseline run(s), {} regression(s){}\n",
            self.lines.len(),
            self.baselines,
            self.regressions(),
            if self.failed() {
                " — FAIL"
            } else if self.advisory {
                " — advisory only"
            } else {
                " — PASS"
            }
        ));
        out
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Gate the newest record in `text` against its trailing comparable
/// history at [`GATE_THRESHOLD_PCT`].
pub fn gate_trajectory(text: &str) -> GateReport {
    gate_trajectory_at(text, GATE_THRESHOLD_PCT)
}

/// [`gate_trajectory`] with an explicit threshold (tests).
pub fn gate_trajectory_at(text: &str, threshold_pct: f64) -> GateReport {
    let parsed: Vec<RunRecord> = split_runs(text)
        .iter()
        .filter_map(|r| parse_run(r))
        .collect();
    let mut report = GateReport::default();
    let Some((latest, history)) = parsed.split_last() else {
        report.advisory = true;
        report.notes.push("no parseable runs in trajectory".into());
        return report;
    };
    if latest.host.is_none() {
        report.advisory = true;
        report
            .notes
            .push("latest run predates host tagging — nothing comparable".into());
        return report;
    }
    let comparable: Vec<&RunRecord> = history
        .iter()
        .filter(|r| {
            r.kind == latest.kind
                && r.host == latest.host
                && match latest.kind {
                    RecordKind::Perf => r.quick == latest.quick,
                    RecordKind::Resilience => r.fault_at_ms == latest.fault_at_ms,
                }
        })
        .collect();
    let window: Vec<&RunRecord> = comparable.iter().rev().take(GATE_WINDOW).copied().collect();
    report.baselines = window.len();
    let min_needed = match latest.kind {
        RecordKind::Perf => GATE_MIN_BASELINE,
        RecordKind::Resilience => 1,
    };
    if window.len() < min_needed {
        report.advisory = true;
        report.notes.push(format!(
            "{} comparable baseline run(s), {min_needed} needed to enforce",
            window.len()
        ));
    }
    match latest.kind {
        RecordKind::Perf => {
            for k in &latest.kernels {
                let base: Vec<f64> = window
                    .iter()
                    .flat_map(|r| &r.kernels)
                    .filter(|b| b.name == k.name && b.unit == k.unit)
                    .map(|b| b.per_sec)
                    .collect();
                if base.is_empty() {
                    report
                        .notes
                        .push(format!("{} ({}): new kernel, no baseline", k.name, k.unit));
                    continue;
                }
                let m = median(base);
                if m <= 0.0 {
                    report
                        .notes
                        .push(format!("{}: zero baseline, skipped", k.name));
                    continue;
                }
                let delta = 100.0 * (k.per_sec / m - 1.0);
                report.lines.push(GateLine {
                    label: k.name.clone(),
                    current: k.per_sec,
                    baseline: m,
                    delta_pct: delta,
                    regressed: delta < -threshold_pct,
                });
            }
        }
        RecordKind::Resilience => {
            for p in &latest.policies {
                let base: Vec<f64> = window
                    .iter()
                    .flat_map(|r| &r.policies)
                    .filter(|b| b.policy == p.policy)
                    .map(|b| b.out_of_zone_ms)
                    .collect();
                if base.is_empty() {
                    report
                        .notes
                        .push(format!("{}: new policy, no baseline", p.policy));
                    continue;
                }
                let m = median(base);
                if m <= 0.0 {
                    report
                        .notes
                        .push(format!("{}: zero-ms baseline, skipped", p.policy));
                    continue;
                }
                let delta = 100.0 * (p.out_of_zone_ms / m - 1.0);
                report.lines.push(GateLine {
                    label: p.policy.clone(),
                    current: p.out_of_zone_ms,
                    baseline: m,
                    delta_pct: delta,
                    regressed: delta > threshold_pct,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf_run(host: &str, wheel: f64, mesh: f64) -> String {
        perf_run_in(host, wheel, mesh, "events")
    }

    /// [`perf_run`] with the `mesh_hotspot` kernel counting `mesh_unit`.
    fn perf_run_in(host: &str, wheel: f64, mesh: f64, mesh_unit: &str) -> String {
        format!(
            "    {{\n      \"quick\": true,\n      \"host\": \"{host}\",\n      \
             \"churn_speedup_wheel_over_heap\": 2.000,\n      \
             \"shard_speedup_k4_over_k1\": 1.000,\n      \"kernels\": [\n        \
             {{\"kernel\": \"event_churn_wheel\", \"unit\": \"events\", \"count\": 10, \
             \"wall_s\": 0.5000, \"per_sec\": {wheel:.1}}},\n        \
             {{\"kernel\": \"mesh_hotspot\", \"unit\": \"{mesh_unit}\", \"count\": 10, \
             \"wall_s\": 0.5000, \"per_sec\": {mesh:.1}}}\n      ]\n    }}"
        )
    }

    fn doc(runs: &[String]) -> String {
        let (last, prior) = runs.split_last().expect("at least one run");
        trajectory_json(prior, last)
    }

    #[test]
    fn doctored_regression_fails_and_names_the_kernel() {
        let runs = vec![
            perf_run("ci", 1000.0, 500.0),
            perf_run("ci", 1040.0, 510.0),
            perf_run("ci", 1020.0, 490.0),
            // mesh_hotspot at half speed: far past the 15% threshold.
            perf_run("ci", 1010.0, 250.0),
        ];
        let report = gate_trajectory(&doc(&runs));
        assert!(report.failed(), "{}", report.render());
        assert_eq!(report.regressions(), 1);
        let bad = report.lines.iter().find(|l| l.regressed).unwrap();
        assert_eq!(bad.label, "mesh_hotspot");
        assert!(bad.delta_pct < -15.0);
        assert!(report.render().contains("[!!] mesh_hotspot"));
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn unit_change_enters_as_a_new_kernel() {
        // mesh_hotspot switches from events/s to packets/s: far fewer
        // per second, but a different quantity — no baseline, no
        // regression, and the unchanged kernel still gates as usual.
        let runs = vec![
            perf_run("ci", 1000.0, 500_000.0),
            perf_run("ci", 1010.0, 510_000.0),
            perf_run("ci", 990.0, 490_000.0),
            perf_run_in("ci", 1000.0, 12_000.0, "packets"),
        ];
        let report = gate_trajectory(&doc(&runs));
        assert!(!report.failed(), "{}", report.render());
        assert!(!report.advisory, "three comparable baselines");
        assert_eq!(report.lines.len(), 1, "only event_churn_wheel compares");
        assert_eq!(report.lines[0].label, "event_churn_wheel");
        assert!(report
            .notes
            .iter()
            .any(|n| n == "mesh_hotspot (packets): new kernel, no baseline"));
        // Once packets/s history exists, the kernel gates on it alone.
        let mut runs = runs;
        runs.push(perf_run_in("ci", 1000.0, 12_100.0, "packets"));
        runs.push(perf_run_in("ci", 1000.0, 6_000.0, "packets"));
        let report = gate_trajectory(&doc(&runs));
        assert!(report.failed(), "{}", report.render());
        let bad = report.lines.iter().find(|l| l.regressed).unwrap();
        assert_eq!(bad.label, "mesh_hotspot");
        assert!((bad.baseline - 12_050.0).abs() < 1e-9, "packets/s median");
    }

    #[test]
    fn within_threshold_noise_passes() {
        let runs = vec![
            perf_run("ci", 1000.0, 500.0),
            perf_run("ci", 1000.0, 500.0),
            perf_run("ci", 910.0, 460.0), // ~9% down: noise, not a regression
        ];
        let report = gate_trajectory(&doc(&runs));
        assert!(!report.failed(), "{}", report.render());
        assert!(!report.advisory);
        assert_eq!(report.lines.len(), 2);
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn too_few_baselines_is_advisory() {
        let runs = vec![perf_run("ci", 1000.0, 500.0), perf_run("ci", 100.0, 50.0)];
        let report = gate_trajectory(&doc(&runs));
        assert!(report.advisory);
        assert!(!report.failed(), "one baseline cannot fail the build");
        assert!(report.render().contains("advisory"));
        // The deltas are still visible for humans.
        assert!(report.lines.iter().any(|l| l.regressed));
    }

    #[test]
    fn foreign_host_runs_are_not_baselines() {
        let runs = vec![
            perf_run("big-iron", 9000.0, 4000.0),
            perf_run("big-iron", 9100.0, 4100.0),
            perf_run("laptop", 1000.0, 500.0),
        ];
        let report = gate_trajectory(&doc(&runs));
        assert_eq!(report.baselines, 0, "host mismatch must exclude");
        assert!(report.advisory);
        assert!(!report.failed());
    }

    #[test]
    fn untagged_legacy_records_never_enforce() {
        // Records written before host tagging have no "host" field; a
        // latest record without one is advisory by definition.
        let legacy = "    {\n      \"quick\": true,\n      \"kernels\": [\n        \
                      {\"kernel\": \"event_churn_wheel\", \"per_sec\": 10.0}\n      ]\n    }"
            .to_string();
        let report = gate_trajectory(&doc(&[legacy.clone(), legacy]));
        assert!(report.advisory);
        assert!(!report.failed());
    }

    fn resilience_run(host: &str, fault_ms: f64, oz_prdrb: f64) -> String {
        format!(
            "    {{\n      \"kind\": \"resilience\",\n      \"host\": \"{host}\",\n      \
             \"fault_at_ms\": {fault_ms:.3},\n      \"policies\": [\n        \
             {{\"policy\": \"drb\", \"pre_fault_us\": 10.00, \"post_fault_peak_us\": 40.00, \
             \"out_of_zone_ms\": 3.000, \"dropped\": 0, \"solutions_invalidated\": 0}},\n        \
             {{\"policy\": \"pr-drb\", \"pre_fault_us\": 9.00, \"post_fault_peak_us\": 30.00, \
             \"out_of_zone_ms\": {oz_prdrb:.3}, \"dropped\": 0, \"solutions_invalidated\": 2}}\n      \
             ]\n    }}"
        )
    }

    #[test]
    fn resilience_recovery_regression_fails() {
        let runs = vec![
            resilience_run("ci", 2.0, 1.0),
            resilience_run("ci", 2.0, 2.5), // 2.5x slower recovery
        ];
        let report = gate_trajectory(&doc(&runs));
        assert!(report.failed(), "{}", report.render());
        let bad = report.lines.iter().find(|l| l.regressed).unwrap();
        assert_eq!(bad.label, "pr-drb");
        // drb held at 3.0 ms in both runs: not a regression.
        assert!(report
            .lines
            .iter()
            .any(|l| l.label == "drb" && !l.regressed));
    }

    #[test]
    fn resilience_baselines_need_matching_fault_time() {
        let runs = vec![
            resilience_run("ci", 1.0, 0.2), // different fault point
            resilience_run("ci", 2.0, 2.5),
        ];
        let report = gate_trajectory(&doc(&runs));
        assert_eq!(report.baselines, 0);
        assert!(report.advisory && !report.failed());
    }

    #[test]
    fn mixed_kinds_gate_against_their_own_history() {
        let runs = vec![
            perf_run("ci", 1000.0, 500.0),
            resilience_run("ci", 2.0, 1.0),
            perf_run("ci", 1000.0, 500.0),
            resilience_run("ci", 2.0, 0.9), // latest: resilience, fine
        ];
        let report = gate_trajectory(&doc(&runs));
        assert!(!report.failed(), "{}", report.render());
        assert_eq!(report.baselines, 1, "only the resilience record counts");
        assert!(!report.advisory, "one baseline suffices for resilience");
    }

    #[test]
    fn corrupt_tail_is_dropped_and_append_recovers() {
        let full = doc(&[perf_run("ci", 1000.0, 500.0), perf_run("ci", 990.0, 505.0)]);
        // Tear the write mid-second-record, as a crash without the
        // atomic temp+rename would have left it.
        let cut = full.rfind("\"mesh_hotspot\"").unwrap();
        let torn = &full[..cut];
        let survivors = split_runs(torn);
        assert_eq!(survivors.len(), 1, "torn tail dropped, prefix kept");
        // The next append produces a well-formed two-run document.
        let healed = trajectory_json(&survivors, &perf_run("ci", 1010.0, 495.0));
        let runs = split_runs(&healed);
        assert_eq!(runs.len(), 2);
        assert!(parse_run(&runs[0]).is_some() && parse_run(&runs[1]).is_some());
    }

    #[test]
    fn parse_extracts_all_fields() {
        let r = parse_run(&perf_run("gh-ci", 1234.5, 67.8)).unwrap();
        assert_eq!(r.kind, RecordKind::Perf);
        assert!(r.quick);
        assert_eq!(r.host.as_deref(), Some("gh-ci"));
        assert_eq!(r.kernels.len(), 2);
        assert_eq!(r.kernels[0].name, "event_churn_wheel");
        assert_eq!(r.kernels[0].unit, "events");
        assert!((r.kernels[0].per_sec - 1234.5).abs() < 1e-9);
        let r = parse_run(&resilience_run("x", 2.5, 1.25)).unwrap();
        assert_eq!(r.kind, RecordKind::Resilience);
        assert_eq!(r.fault_at_ms, Some(2.5));
        assert_eq!(r.policies.len(), 2);
        assert!((r.policies[1].out_of_zone_ms - 1.25).abs() < 1e-9);
        assert!(
            parse_run("{\"schema\": \"x\"}").is_none(),
            "nothing to gate"
        );
    }

    #[test]
    fn threshold_separates_noise_from_regression() {
        // Just inside the threshold is noise; just beyond it fails.
        let runs = vec![
            perf_run("ci", 1000.0, 1000.0),
            perf_run("ci", 1000.0, 1000.0),
            perf_run("ci", 851.0, 840.0),
        ];
        let report = gate_trajectory_at(&doc(&runs), 15.0);
        let wheel = report
            .lines
            .iter()
            .find(|l| l.label == "event_churn_wheel")
            .unwrap();
        assert!(!wheel.regressed, "-14.9% stays ok");
        let mesh = report
            .lines
            .iter()
            .find(|l| l.label == "mesh_hotspot")
            .unwrap();
        assert!(mesh.regressed, "-16% fails");
    }
}
