//! End-to-end and per-layer benchmark of the STT-RAM NoC simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! perfbench --print-goldens > perfbench/goldens/fig6_quick.txt
//! ```
//!
//! One workload runs per process. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Everything else goes to standard error. See
//! `perfbench/README.md` for what each workload and metric means.

mod cached;
mod check;
mod counts;
mod noc;
mod quick;
mod selftest;
mod stats;
mod tpcc;
mod trace;

use snoc_common::config::SystemConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "fig6_tpcc_full",
    "fig6_quick_sweep",
    "noc_loaded_reads",
    "sweep_cached",
];

/// End-to-end metrics printed by every untraced run, with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("kcycles_per_s", "kcycle/s"),
    ("cells_per_s", "cell/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed by every traced run, with units. A
/// workload that never calls a layer reports 0 for that layer's
/// metrics.
const PER_LAYER: [(&str, &str); 39] = [
    ("system.new_ms", "ms"),
    ("system.step_us_p50", "us"),
    ("system.step_us_p99", "us"),
    ("system.ns_per_flit_hop", "ns"),
    ("system.metrics_ms", "ms"),
    ("system.self_ms", "ms"),
    ("noc.new_us", "us"),
    ("noc.step_us_p50", "us"),
    ("noc.step_us_p99", "us"),
    ("noc.ns_per_flit_hop", "ns"),
    ("noc.inject_ns", "ns"),
    ("noc.drain_ns", "ns"),
    ("noc.self_ms", "ms"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_p90", "ms"),
    ("sweep.worker_idle_frac", "ratio"),
    ("sweep.self_ms", "ms"),
    ("cellcache.key_us", "us"),
    ("cellcache.lookup_us", "us"),
    ("cellcache.decode_us", "us"),
    ("cellcache.hit_ratio", "ratio"),
    ("cellcache.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("cpu.committed", "count"),
    ("noc.delivered", "count"),
    ("noc.switch_traversals", "count"),
    ("noc.buffer_writes", "count"),
    ("noc.vertical_flits", "count"),
    ("noc.held_packets", "count"),
    ("noc.held_cycles", "cycle"),
    ("noc.req_latency_cyc", "cycle"),
    ("noc.resp_latency_cyc", "cycle"),
    ("mem.bank_reads", "count"),
    ("mem.bank_writes", "count"),
    ("mem.bank_queue_wait_cyc", "cycle"),
    ("mem.bank_service_cyc", "cycle"),
    ("mem.mem_fetches", "count"),
    ("system.uncore_rtt_cyc", "cycle"),
];

/// Layers whose self time the traced run reports.
const SELF_TIME_LAYERS: [&str; 5] = ["system", "noc", "sweep", "cellcache", "bench"];

/// Sweep worker threads (the two-core box the workloads were sized on).
pub const THREADS: usize = 2;

/// Everything a workload needs to run.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Whether `seed` is `SystemConfig`'s default, at which the
    /// checked-in oracles apply.
    pub default_seed: bool,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Span recorder (off unless `--trace 1`).
    pub tracer: Tracer,
    /// Self-test only: corrupt one expected value.
    pub perturb: bool,
    /// Private scratch directory inside the checkout.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Runs `unit` repeatedly until the measured phase is over: at
    /// least once (twice when tracing, so traced and untraced units
    /// alternate, starting traced), then until `seconds` have passed.
    pub fn units(&mut self, mut unit: impl FnMut(&mut Ctx, bool)) {
        let min = if self.tracer.is_on() { 2 } else { 1 };
        let start = Instant::now();
        let mut i = 0u32;
        loop {
            let traced = self.tracer.is_on() && i.is_multiple_of(2);
            self.tracer.set_run(i);
            unit(self, traced);
            i += 1;
            if i >= min && start.elapsed().as_secs_f64() >= self.seconds {
                break;
            }
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, or packets).
    pub attempted: u64,
    /// Operations that failed or disagreed with their expected output.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Wall time of each traced unit's measured phase (s).
    pub traced_unit_s: Vec<f64>,
    /// Wall time of each untraced unit's measured phase (s).
    pub plain_unit_s: Vec<f64>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.note(why);
    }

    /// Records a problem that does not map to one operation (the run
    /// is still reported incorrect).
    pub fn note(&mut self, why: impl Into<String>) {
        if self.problems.len() < 20 {
            self.problems.push(why.into());
        }
    }

    /// Files a unit's measured wall time as traced or untraced.
    pub fn unit_time(&mut self, traced: bool, secs: f64) {
        if traced {
            self.traced_unit_s.push(secs);
        } else {
            self.plain_unit_s.push(secs);
        }
    }
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Cli),
    SelfTest,
    PrintGoldens,
}

fn parse_cli(args: &[String]) -> Result<Command, String> {
    match args {
        [flag] if flag == "--self-test" => return Ok(Command::SelfTest),
        [flag] if flag == "--print-goldens" => return Ok(Command::PrintGoldens),
        _ => {}
    }
    let mut workload = None;
    let mut seed = SystemConfig::default().seed;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.to_string());
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Cli {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Where build outputs go: `CARGO_TARGET_DIR` when set, else the
/// package's own `target/`. Traces and the private cell store live
/// under it, inside the checkout.
pub fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")))
}

/// Runs one workload and returns its outcome with every metric of the
/// requested kind filled in.
pub fn run_workload(workload: &str, mut ctx: Ctx) -> (Outcome, Tracer) {
    let mut out = match workload {
        "fig6_tpcc_full" => tpcc::run(&mut ctx),
        "fig6_quick_sweep" => quick::run(&mut ctx),
        "noc_loaded_reads" => noc::run(&mut ctx),
        "sweep_cached" => cached::run(&mut ctx),
        other => unreachable!("workload {other} validated by the CLI"),
    };
    let tracer = ctx.tracer;
    for (kind, units) in [("plain", &out.plain_unit_s), ("traced", &out.traced_unit_s)] {
        if !units.is_empty() {
            eprintln!(
                "perfbench: {workload}: {} {kind} units, measured phase min/median/max {:.6}/{:.6}/{:.6} s",
                units.len(),
                stats::quantile(units, 0.0),
                stats::median(units),
                stats::quantile(units, 1.0)
            );
        }
    }
    if tracer.is_on() {
        for layer in SELF_TIME_LAYERS {
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_suffix(".self_ms") == Some(layer))
                .expect("every self-time layer has a metric");
            out.layer.insert(name, tracer.self_ms(layer));
        }
        let traced = stats::median(&out.traced_unit_s);
        let plain = stats::median(&out.plain_unit_s);
        out.layer
            .insert("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
    } else {
        let rss = stats::peak_rss_mb().unwrap_or_else(|| {
            out.note("VmHWM unavailable");
            0.0
        });
        out.e2e.insert("peak_rss_mb", rss);
    }
    (out, tracer)
}

fn result_json(out: &Outcome, trace: bool) -> (String, bool) {
    let (list, values) = if trace {
        (&PER_LAYER[..], &out.layer)
    } else {
        (&END_TO_END[..], &out.e2e)
    };
    let mut problems = Vec::new();
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let value = match values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    problems.push(format!("{name} is {v}"));
                    0.0
                }
                // Traced runs report 0 for layers the workload never
                // calls; an end-to-end metric must always be measured.
                None if trace => 0.0,
                None => {
                    problems.push(format!("{name} was not measured"));
                    0.0
                }
            };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty() && problems.is_empty();
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    (json, correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(Command::Run(cli)) => cli,
        Ok(Command::SelfTest) => return selftest::run(),
        Ok(Command::PrintGoldens) => {
            print!("{}", quick::goldens_text());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test | --print-goldens",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check::fig6_tpcc_oracle() {
        eprintln!("perfbench: not in a repository checkout: {e}");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: cli.seed,
        default_seed: cli.seed == SystemConfig::default().seed,
        seconds: cli.seconds,
        tracer: Tracer::new(cli.trace),
        perturb: false,
        scratch: work_dir().join(format!("perfbench-scratch-{}", std::process::id())),
    };
    let (out, tracer) = run_workload(&cli.workload, ctx);
    if tracer.is_on() {
        let path = work_dir()
            .join("perfbench-trace")
            .join(format!("{}-seed{}.json", cli.workload, cli.seed));
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}",
            cli.workload, cli.seed, cli.seconds
        );
        match tracer.write_json(&path, &header) {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write trace {}: {e}", path.display()),
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    let (json, correct) = result_json(&out, cli.trace);
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
