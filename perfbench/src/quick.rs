//! `fig6_quick_sweep`: the Quick Figure 6 grid (9 applications × 6
//! scenarios = 54 cells × 3,500 cycles) on a two-thread `SweepRunner`
//! with result caching off and warm reuse at its default.
//!
//! One unit is one sweep. Set-up is building the runner and the grid
//! (timed [`SETUP_SAMPLES`] times up front); every cell's construction
//! happens inside the sweep, so it counts toward the measured phase. A
//! traced unit records a span per cell from the runner's observer
//! hooks.

use crate::check::{self, Expect};
use crate::counts;
use crate::trace::Tracer;
use crate::{stats, Ctx, Outcome, THREADS};
use snoc_core::cellcache::cell_key;
use snoc_core::experiments::{fig6::Fig6, Scale};
use snoc_core::{CellResult, Experiment, RunObserver, RunSpec, SweepRunner};
use snoc_noc::NocEnv;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runner-and-grid builds timed for the set-up median.
const SETUP_SAMPLES: usize = 32;

/// The Quick Figure 6 grid in grid order, seeded with `seed`.
pub fn grid(seed: u64) -> Vec<RunSpec> {
    let mut grid = Fig6.grid(Scale::Quick);
    for spec in &mut grid {
        spec.cfg.seed = seed;
    }
    grid
}

/// Cell start/finish times reported by the runner's workers.
#[derive(Default)]
pub struct CellSpans {
    open: Mutex<HashMap<usize, Instant>>,
    done: Mutex<Vec<(Instant, Instant)>>,
}

impl CellSpans {
    /// Takes the finished cells' intervals.
    pub fn take(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.done.lock().expect("observer lock poisoned"))
    }
}

/// A [`RunObserver`] that timestamps every cell.
struct SpanObserver(Arc<CellSpans>);

impl RunObserver for SpanObserver {
    fn cell_started(&self, index: usize, _label: &str) {
        let now = Instant::now();
        self.0
            .open
            .lock()
            .expect("observer lock poisoned")
            .insert(index, now);
    }

    fn cell_finished(&self, result: &CellResult) {
        let end = Instant::now();
        let start = self
            .0
            .open
            .lock()
            .expect("observer lock poisoned")
            .remove(&result.index);
        if let Some(start) = start {
            self.0
                .done
                .lock()
                .expect("observer lock poisoned")
                .push((start, end));
        }
    }
}

/// Runs `grid` on `runner`, inside a `sweep.run_grid` span with one
/// `sweep.cell` child per cell when traced. Returns the results and
/// the summed cell time over the sweep's wall time.
pub fn run_grid(
    t: &mut Tracer,
    runner: &SweepRunner,
    spans: Option<&CellSpans>,
    grid: Vec<RunSpec>,
) -> (Vec<CellResult>, Option<(f64, f64)>) {
    match spans {
        None => (runner.run_grid("perfbench", grid), None),
        Some(spans) => t.span("sweep.run_grid", |t| {
            let t0 = Instant::now();
            let results = runner.run_grid("perfbench", grid);
            let wall = t0.elapsed().as_secs_f64();
            let cells = spans.take();
            let busy = cells.iter().map(|(s, e)| (*e - *s).as_secs_f64()).sum();
            t.import_concurrent("sweep.cell", &cells);
            (results, Some((busy, wall)))
        }),
    }
}

/// A hermetic runner: explicit thread count and cache setting, and an
/// empty environment snapshot in place of the one `SweepRunner::new`
/// captures.
pub fn runner(cache: bool, spans: Option<Arc<CellSpans>>) -> SweepRunner {
    let r = SweepRunner::new()
        .threads(THREADS)
        .cache(cache)
        .noc_env(NocEnv::default());
    match spans {
        Some(s) => r.observer(SpanObserver(s)),
        None => r,
    }
}

/// Checks a sweep's results cell by cell; returns the metrics of the
/// cells that passed.
pub fn check_cells<'a>(
    out: &mut Outcome,
    expect: &mut Expect,
    grid: &[RunSpec],
    results: &'a [CellResult],
    want_cached: bool,
) -> Vec<&'a snoc_core::RunMetrics> {
    let mut ok = Vec::new();
    out.attempted += grid.len() as u64;
    if results.len() != grid.len() {
        out.fail(format!(
            "{} results for {} cells",
            results.len(),
            grid.len()
        ));
        return ok;
    }
    for (spec, r) in grid.iter().zip(results) {
        let m = match &r.outcome {
            Ok(m) => m,
            Err(e) => {
                out.fail(format!("{}: {e}", spec.label));
                continue;
            }
        };
        if r.cached != want_cached {
            out.fail(format!("{}: cached = {}", spec.label, r.cached));
            continue;
        }
        let key = cell_key(spec).expect("plain cells have a key");
        let bad = expect.check(&spec.label, &check::cell_digest(m, key));
        if bad.is_empty() {
            ok.push(m);
        } else {
            out.fail(bad.join("; "));
        }
    }
    ok
}

/// The goldens that apply at this seed (none away from the default).
pub fn expect_for(ctx: &Ctx) -> Expect {
    let mut expect = Expect::default();
    if ctx.default_seed {
        expect.golden = check::quick_goldens();
    }
    if ctx.perturb {
        expect.perturb();
    }
    expect
}

/// The goldens file: every Quick grid cell's digest at the default
/// seed, in grid order.
pub fn goldens_text() -> String {
    let grid = grid(snoc_common::config::SystemConfig::default().seed);
    let results = runner(false, None).run_grid("perfbench-goldens", grid.clone());
    let mut text = String::from(
        "# Quick Figure 6 grid at the default seed: cell label, digest of its\n\
         # cell-codec value lines. Regenerate with `perfbench --print-goldens`\n\
         # only when a change is meant to alter simulated results.\n",
    );
    for (spec, r) in grid.iter().zip(&results) {
        let key = cell_key(spec).expect("plain cells have a key");
        text.push_str(&format!(
            "{} {}\n",
            spec.label,
            check::cell_digest(r.metrics(), key)
        ));
    }
    text
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut expect = expect_for(ctx);
    let spans = Arc::new(CellSpans::default());
    let seed = ctx.seed;
    // Set-up takes microseconds, so it is sampled many times up front.
    let setup: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box((runner(false, None), grid(seed)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let (mut kcps, mut cps) = (Vec::new(), Vec::new());
    let (mut busy, mut capacity) = (0.0, 0.0);
    let mut grid_counts = None;

    ctx.units(|ctx, traced| {
        let t0 = Instant::now();
        let runner = runner(false, traced.then(|| Arc::clone(&spans)));
        let cells = grid(seed);
        let setup_s = t0.elapsed().as_secs_f64();
        let specs = cells.clone();
        let cycles: u64 = specs
            .iter()
            .map(|s| s.cfg.warmup_cycles + s.cfg.measure_cycles)
            .sum();
        let t1 = Instant::now();
        let (results, cell_time) =
            run_grid(&mut ctx.tracer, &runner, traced.then_some(&*spans), cells);
        let measure_s = t1.elapsed().as_secs_f64();
        out.unit_time(traced, measure_s);
        if let Some((b, wall)) = cell_time {
            busy += b;
            capacity += wall * THREADS as f64;
        } else {
            kcps.push(cycles as f64 / measure_s / 1e3);
            cps.push(specs.len() as f64 / (setup_s + measure_s));
        }
        let ok = check_cells(&mut out, &mut expect, &specs, &results, false);
        if grid_counts.is_none() && ok.len() == specs.len() {
            grid_counts = Some(counts::from_metrics(&ok));
        }
    });

    out.e2e.insert("setup_s", stats::median(&setup));
    out.e2e.insert("kcycles_per_s", stats::median(&kcps));
    out.e2e.insert("cells_per_s", stats::median(&cps));
    if let Some(layer) = grid_counts {
        out.layer.extend(layer);
    }
    if let Some(cell) = ctx.tracer.stats("sweep.cell") {
        out.layer.insert("sweep.cell_ms_p50", cell.p50_ns / 1e6);
        out.layer.insert("sweep.cell_ms_p90", cell.p90_ns / 1e6);
        out.layer
            .insert("sweep.worker_idle_frac", 1.0 - busy / capacity);
    }
    out
}
