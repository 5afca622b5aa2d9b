//! `fig6_tpcc_full`: the Full-scale `tpcc` row of Figure 6 — six
//! scenarios × 18,000 cycles on one thread, each cell built with
//! `System::with_env(.., &NocEnv::default())`.
//!
//! One unit is one row, built and run one cell at a time. Set-up is
//! the six constructions; the measured phase is the six runs. A plain unit calls `System::run`; a traced
//! unit steps the same cells by hand (warm-up, `begin_measurement`,
//! measurement, `metrics`) with a span around every layer call, and
//! must reproduce the plain unit's output bit for bit.

use crate::check::{self, Expect};
use crate::counts::{self, NetCounts};
use crate::trace::Tracer;
use crate::{stats, Ctx, Outcome};
use snoc_core::cellcache::cell_key;
use snoc_core::experiments::Scale;
use snoc_core::{RunMetrics, RunSpec, Scenario, System};
use snoc_noc::NocEnv;
use snoc_workload::table3;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// The row's six cells in Figure 6 column order, seeded with `seed`.
fn specs(seed: u64) -> Vec<RunSpec> {
    let app = table3::by_name("tpcc").expect("tpcc is a Table 3 application");
    Scenario::ALL
        .iter()
        .map(|sc| {
            let mut cfg = Scale::Full.apply(sc.config());
            cfg.seed = seed;
            RunSpec::homogeneous(format!("{}/tpcc", sc.name()), cfg, app)
        })
        .collect()
}

/// Runs `f`, turning a panic into its message.
fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

fn build(spec: &RunSpec) -> System {
    System::with_env(spec.cfg, &spec.workload, spec.mode, &NocEnv::default())
}

struct Cell {
    metrics: RunMetrics,
    net: NetCounts,
}

struct Row {
    setup_s: f64,
    measure_s: f64,
    cells: Vec<Result<Cell, String>>,
}

fn plain_row(specs: &[RunSpec]) -> Row {
    let (mut setup_s, mut measure_s) = (0.0, 0.0);
    let cells = specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let sys = catch(|| build(spec));
            setup_s += t0.elapsed().as_secs_f64();
            let mut sys = sys?;
            let t1 = Instant::now();
            let cell = catch(|| {
                let metrics = sys.run();
                Cell {
                    metrics,
                    net: NetCounts::of(sys.network()),
                }
            });
            measure_s += t1.elapsed().as_secs_f64();
            cell
        })
        .collect();
    Row {
        setup_s,
        measure_s,
        cells,
    }
}

fn traced_cell(t: &mut Tracer, mut sys: System) -> Cell {
    let cfg = *sys.config();
    t.span("bench.cell", |t| {
        for _ in 0..cfg.warmup_cycles {
            t.call("system.warmup_step", || sys.step());
        }
        t.call("system.begin_measurement", || sys.begin_measurement());
        for _ in 0..cfg.measure_cycles {
            t.call("system.step", || sys.step());
        }
        let metrics = t.span("system.metrics", |_| sys.metrics(cfg.measure_cycles));
        Cell {
            metrics,
            net: NetCounts::of(sys.network()),
        }
    })
}

fn traced_row(t: &mut Tracer, specs: &[RunSpec]) -> Row {
    let (mut setup_s, mut measure_s) = (0.0, 0.0);
    let cells = t.span("bench.row", |t| {
        specs
            .iter()
            .map(|spec| {
                let t0 = Instant::now();
                let sys = t.span("system.new", |_| catch(|| build(spec)));
                setup_s += t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let cell = sys.and_then(|s| catch(|| traced_cell(t, s)));
                measure_s += t1.elapsed().as_secs_f64();
                cell
            })
            .collect()
    });
    Row {
        setup_s,
        measure_s,
        cells,
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let specs = specs(ctx.seed);
    let mut out = Outcome::default();
    let mut oracle = if ctx.default_seed {
        match check::fig6_tpcc_oracle() {
            Ok(row) => Some(row),
            Err(e) => {
                out.note(e);
                None
            }
        }
    } else {
        None
    };
    if ctx.perturb {
        if let Some(v) = oracle.as_mut().and_then(|row| row.get_mut(3)) {
            v.push('1');
        }
    }
    let mut expect = Expect::default();
    let cycles: u64 = specs
        .iter()
        .map(|s| s.cfg.warmup_cycles + s.cfg.measure_cycles)
        .sum();
    let (mut setup, mut kcps, mut cps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut step_traversals, mut row_counts) = (0u64, None);

    ctx.units(|ctx, traced| {
        let row = if traced {
            traced_row(&mut ctx.tracer, &specs)
        } else {
            plain_row(&specs)
        };
        out.attempted += specs.len() as u64;
        out.unit_time(traced, row.setup_s + row.measure_s);
        if !traced {
            setup.push(row.setup_s);
            kcps.push(cycles as f64 / row.measure_s / 1e3);
            cps.push(specs.len() as f64 / (row.setup_s + row.measure_s));
        }
        let base = row.cells[0].as_ref().map(|c| c.metrics.slowest_ipc()).ok();
        let mut ok = Vec::new();
        let mut net = NetCounts::default();
        for (i, (spec, cell)) in specs.iter().zip(&row.cells).enumerate() {
            let cell = match cell {
                Ok(c) => c,
                Err(e) => {
                    out.fail(format!("{}: panicked: {e}", spec.label));
                    continue;
                }
            };
            let key = cell_key(spec).expect("plain cells have a key");
            let mut bad = expect.check(&spec.label, &check::cell_digest(&cell.metrics, key));
            if let (Some(oracle), Some(base)) = (&oracle, base) {
                let got = format!("{:.6}", cell.metrics.slowest_ipc() / base);
                if oracle.get(i) != Some(&got) {
                    bad.push(format!(
                        "{}: normalized IPC {got} != results/fig6.csv {:?}",
                        spec.label,
                        oracle.get(i)
                    ));
                }
            }
            if bad.is_empty() {
                ok.push(&cell.metrics);
            } else {
                out.fail(bad.join("; "));
            }
            net.add(cell.net);
        }
        if traced {
            step_traversals += net.switch_traversals;
        }
        if row_counts.is_none() && ok.len() == specs.len() {
            let mut layer = counts::from_metrics(&ok);
            net.insert_into(&mut layer);
            row_counts = Some(layer);
        }
    });

    out.e2e.insert("setup_s", stats::median(&setup));
    out.e2e.insert("kcycles_per_s", stats::median(&kcps));
    out.e2e.insert("cells_per_s", stats::median(&cps));
    if let Some(layer) = row_counts {
        out.layer.extend(layer);
    }
    let t = &ctx.tracer;
    if let (Some(new), Some(step), Some(metrics)) = (
        t.stats("system.new"),
        t.stats("system.step"),
        t.stats("system.metrics"),
    ) {
        out.layer.insert("system.new_ms", new.p50_ns / 1e6);
        out.layer.insert("system.step_us_p50", step.p50_ns / 1e3);
        out.layer.insert("system.step_us_p99", step.p99_ns / 1e3);
        out.layer.insert(
            "system.ns_per_flit_hop",
            step.busy_ns as f64 / step_traversals.max(1) as f64,
        );
        out.layer.insert("system.metrics_ms", metrics.p50_ns / 1e6);
    }
    out
}
