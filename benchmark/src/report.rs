//! Runs one workload's repetitions, checks that they agree, and prints the
//! result: a table for people, then one JSON object on the last line.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, min_max, nearest_rank, samples_beyond, TAIL_SAMPLES_BEYOND};
use crate::trace::{spans_to_json, Budget};
use crate::workload::Rep;
use crate::workloads::Inputs;
use crate::{sys, Args};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Fewest repetitions a full run measures (an odd count, so the median is
/// a repetition that happened).
const MIN_REPS: usize = 3;
/// Repetitions of a `--quick` run: enough to compare two.
const QUICK_REPS: usize = 2;

/// Run workload `name` as `args` asks and print its report. Returns
/// whether every check passed.
pub fn run_workload(name: &str, args: &Args, pinned: Option<usize>) -> bool {
    let inputs = Inputs::generate(name, args.seed, args.quick).expect("name checked by the parser");
    println!(
        "== {name}: seed {} {}pinned: {} threads: {}{}",
        args.seed,
        if args.trace { "traced " } else { "" },
        pinned.map_or("false".to_string(), |c| format!("true (core {c})")),
        nsdf_util::par::num_threads(),
        if args.quick { " QUICK (numbers not comparable)" } else { "" },
    );
    let outcome = if args.trace { traced_run(name, &inputs) } else { plain_run(&inputs, args) };
    let (mut out, metrics) = match outcome {
        Ok(o) => o,
        Err(e) => {
            println!("{name}: FAILED to run: {e}");
            return false;
        }
    };
    for (def, value) in &metrics {
        if !value.is_finite() {
            out.problems.push(format!("metric {} is not a finite number ({value})", def.name));
        }
    }
    for p in &out.problems {
        println!("CHECK FAILED [{name}]: {p}");
    }
    let correct = out.problems.is_empty();
    println!("{}", result_json(correct, out.attempted, out.failed, &metrics));
    correct
}

/// What a run boils down to besides its metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

type Metrics = Vec<(MetricDef, f64)>;

/// The repetitions' violated checks, each once, in first-seen order.
fn unique_problems<'a>(reps: impl Iterator<Item = &'a Rep>) -> Vec<String> {
    let mut problems: Vec<String> = Vec::new();
    for p in reps.flat_map(|r| &r.problems) {
        if !problems.contains(p) {
            problems.push(p.clone());
        }
    }
    problems
}

/// Everything about a repetition that must not change between runs of one
/// seed: virtual time, every op latency, byte counts and the exact
/// per-layer metrics.
fn fingerprint(rep: &Rep) -> impl PartialEq + std::fmt::Debug {
    (
        rep.virtual_ns,
        rep.ops_vns.clone(),
        (rep.attempted, rep.failed),
        (rep.stored_bytes, rep.user_stored_bytes, rep.wan_bytes, rep.user_moved_bytes),
        rep.layers.exact(),
    )
}

/// The end-to-end run: `MIN_REPS` or more repetitions on the plain stack.
/// CPU and set-up times are medians over all of them. Everything virtual
/// or counted comes from the first `Inputs::sessions` repetitions — one
/// for a workload that replays the same inputs, the pooled sessions of
/// `classroom` — so it does not depend on how many repetitions fit the
/// budget; every later repetition must match the one it replays.
fn plain_run(inputs: &Inputs, args: &Args) -> nsdf_util::Result<(Outcome, Metrics)> {
    let min_reps = if args.quick { QUICK_REPS } else { MIN_REPS.max(inputs.sessions()) };
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured_s = 0.0;
    // Measure for `--seconds`: keep going while another repetition of the
    // size seen so far still fits the budget.
    while reps.len() < min_reps
        || (!args.quick && measured_s + measured_s / reps.len() as f64 <= args.seconds)
    {
        let rep = inputs.run(false, reps.len())?;
        measured_s += rep.cpu_s;
        reps.push(rep);
    }
    let mut problems = unique_problems(reps.iter());
    let sessions = inputs.sessions().min(reps.len());
    for i in sessions..reps.len() {
        if fingerprint(&reps[i]) != fingerprint(&reps[i - sessions]) {
            problems.push(format!(
                "repetition {i} differs from repetition {} in a virtual or counted quantity \
                 (virtual_ns {} vs {})",
                i - sessions,
                reps[i].virtual_ns,
                reps[i - sessions].virtual_ns
            ));
        }
    }

    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let (cpu, setup) = (column(|r| r.cpu_s), column(|r| r.setup_s));
    let pooled = &reps[..sessions];
    let total = |f: fn(&Rep) -> u64| pooled.iter().map(f).sum::<u64>();
    let mut ops: Vec<u64> = pooled.iter().flat_map(|r| r.ops_vns.iter().copied()).collect();
    ops.sort_unstable();
    let beyond = samples_beyond(ops.len(), 0.95);
    if !args.quick && beyond < TAIL_SAMPLES_BEYOND {
        problems.push(format!(
            "p95 of {} ops has {beyond} samples beyond it, fewer than {TAIL_SAMPLES_BEYOND}",
            ops.len()
        ));
    }
    let values = [
        inputs.generate_s() + median(&setup),
        median(&cpu),
        total(|r| r.virtual_ns) as f64 / sessions as f64 / 1e9,
        nearest_rank(&ops, 0.50) as f64 / 1e6,
        nearest_rank(&ops, 0.95) as f64 / 1e6,
        total(|r| r.stored_bytes) as f64 / total(|r| r.user_stored_bytes) as f64,
        total(|r| r.wan_bytes) as f64 / total(|r| r.user_moved_bytes) as f64,
        sys::peak_rss_mib(),
    ];
    let metrics: Metrics = END_TO_END.iter().copied().zip(values).collect();

    let (cpu_lo, cpu_hi) = min_max(&cpu);
    let (setup_lo, setup_hi) = min_max(&setup);
    println!("{} repetitions, {:.1} s CPU measured", reps.len(), measured_s);
    for (def, v) in &metrics {
        let note = match def.name {
            "cpu_s" => format!("median of {} (min {cpu_lo:.3}, max {cpu_hi:.3})", reps.len()),
            "setup_s" => format!(
                "inputs {:.3} + per-repetition median (min {setup_lo:.3}, max {setup_hi:.3})",
                inputs.generate_s()
            ),
            "op_virtual_p50_ms" => format!("n = {}", ops.len()),
            "op_virtual_p95_ms" => format!("n = {}, {beyond} samples beyond", ops.len()),
            "virtual_s" if sessions > 1 => format!("mean of {sessions} sessions"),
            "virtual_s" => "identical across repetitions".to_string(),
            _ => String::new(),
        };
        println!("  {:<28} {:>16.6} {:<6} {note}", def.name, v, def.unit);
    }
    let (attempted, failed) = (total(|r| r.attempted), total(|r| r.failed));
    println!(
        "  {:<28} {:>16.6} {:<6} {failed} failed of {attempted} ops",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    Ok((Outcome { attempted, failed, problems }, metrics))
}

/// The traced run: one plain repetition, one on the traced stack (after a
/// discarded warm-up, since a process's first repetition runs on a cold
/// heap and would skew the overhead). Reports every per-layer metric, the
/// budget table, and how the two compare.
fn traced_run(name: &str, inputs: &Inputs) -> nsdf_util::Result<(Outcome, Metrics)> {
    inputs.run(false, 0)?;
    let plain = inputs.run(false, 0)?;
    let mut traced = inputs.run(true, 0)?;
    let mut problems = unique_problems([&plain, &traced].into_iter());
    let run = traced.trace.take().expect("traced repetition records spans");
    let budget = &run.budget;

    // The traced stack must charge the same virtual time and move the same
    // WAN counters as the client-built one. A mismatch flags the layer
    // table; it does not fail the run.
    let wan_equal = PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("wan."))
        .all(|m| plain.layers.get(m.name).to_bits() == traced.layers.get(m.name).to_bits());
    let equivalent = plain.virtual_ns == traced.virtual_ns && wan_equal;

    let l = &mut traced.layers;
    for (metric, layers) in [
        ("workflow.self_cpu_s", &["workflow"][..]),
        ("sched.self_cpu_s", &["sched"][..]),
        ("tier.self_cpu_s", &["tier"][..]),
        ("resilience.self_cpu_s", &["retry", "integrity", "breaker", "fault"][..]),
    ] {
        l.set(metric, layers.iter().map(|layer| budget.wall_secs(layer)).sum());
    }
    let overhead = traced.cpu_s / plain.cpu_s - 1.0;
    l.set("trace.overhead_frac", overhead);
    l.set("trace.unattributed_vns", budget.unattributed_vns as f64);
    l.set("trace.unattributed_cpu_s", budget.unattributed_wns as f64 / 1e9);
    l.set("trace.equivalent", equivalent as u8 as f64);

    if budget.total_vns() != traced.virtual_ns {
        problems.push(format!(
            "budget: virtual rows + unattributed = {} ns, phase = {} ns",
            budget.total_vns(),
            traced.virtual_ns
        ));
    }
    print!("{}", budget_table(budget, &traced));
    println!(
        "trace: equivalent = {equivalent} (virtual {} vs {} ns), overhead {:+.2} %, {} spans",
        plain.virtual_ns,
        traced.virtual_ns,
        100.0 * overhead,
        run.spans.len()
    );
    match write_trace(name, &spans_to_json(&run.spans)) {
        Ok(path) => println!("trace: spans written to {}", path.display()),
        Err(e) => println!("trace: could not write spans: {e}"),
    }
    let metrics: Metrics = PER_LAYER.iter().map(|m| (*m, traced.layers.get(m.name))).collect();
    for (def, v) in metrics.iter().filter(|(_, v)| *v != 0.0) {
        let better = def.better.as_str();
        println!("  {:<32} {:>20.6} {:<6} ({better} is better)", def.name, v, def.unit);
    }
    let zeros: Vec<&str> = metrics.iter().filter(|(_, v)| *v == 0.0).map(|(d, _)| d.name).collect();
    println!("  = 0 (layer bypassed or idle): {}", zeros.join(" "));
    Ok((Outcome { attempted: traced.attempted, failed: traced.failed, problems }, metrics))
}

/// One row per layer, both currencies, with the sums spelled out.
fn budget_table(budget: &Budget, rep: &Rep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<14} {:>18} {:>8} {:>12} {:>8}",
        "layer", "virtual ns", "share", "cpu s", "share"
    );
    let (phase_v, phase_c) = (rep.virtual_ns.max(1) as f64, rep.cpu_s.max(1e-9));
    let mut row = |name: &str, vns: f64, cpu_s: f64| {
        let _ = writeln!(
            out,
            "  {name:<14} {vns:>18.0} {:>7.2}% {cpu_s:>12.4} {:>7.2}%",
            100.0 * vns / phase_v,
            100.0 * cpu_s / phase_c
        );
    };
    for (layer, (vns, wns)) in &budget.rows {
        row(layer, *vns as f64, *wns as f64 / 1e9);
    }
    row("(unattributed)", budget.unattributed_vns as f64, budget.unattributed_wns as f64 / 1e9);
    row("= phase", budget.total_vns() as f64, budget.total_wns() as f64 / 1e9);
    out
}

/// Where trace files go: `benchmark/out/` of the checkout the command was
/// started in, or next to this package's manifest when started elsewhere.
fn write_trace(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let here = PathBuf::from("benchmark");
    let dir = if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (def, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest digits that read back to the same f64.
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", def.name, def.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics: Metrics =
            vec![(END_TO_END[0], 0.8127), (END_TO_END[1], 5.25), (END_TO_END[2], 1e-7)];
        let line = result_json(true, 1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"cpu_s\": {\"value\": 5.25, \"unit\": \"s\"}, \
             \"virtual_s\": {\"value\": 0.0000001, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        // attempted is at least 1 even for a run that got nowhere.
        assert!(result_json(false, 0, 0, &Vec::new()).contains("\"attempted\": 1,"));
    }

    #[test]
    fn budget_table_spells_out_the_sums() {
        let mut b = Budget::default();
        b.rows.insert("wan", (600, 1_000_000_000));
        b.rows.insert("idx", (300, 2_000_000_000));
        b.unattributed_vns = 100;
        b.unattributed_wns = 500_000_000;
        let rep = Rep { virtual_ns: 1000, cpu_s: 3.5, ..Rep::default() };
        let t = budget_table(&b, &rep);
        assert!(t.contains("wan") && t.contains("(unattributed)"));
        let last = t.lines().last().unwrap();
        assert!(last.contains("= phase") && last.contains("1000") && last.contains("3.5000"));
        assert!(last.contains("100.00%"));
    }
}
