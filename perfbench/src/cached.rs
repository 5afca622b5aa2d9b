//! `sweep_cached`: resubmitting the Quick Figure 6 grid against a
//! primed on-disk cell store.
//!
//! Set-up primes a fresh private store (inside the build directory,
//! deleted at exit) by running the grid once with caching on; it does
//! so [`PRIMINGS`] times, each into a new store, and keeps the first. One unit
//! then hands the grid to a *fresh* `SweepRunner` rooted at the store,
//! so each cell is a disk lookup plus a decode; every served cell must
//! be a hit equal to the primed result. A traced unit additionally
//! calls the cache's key, lookup and decode entry points directly, one
//! span each per cell.

use crate::check::Expect;
use crate::quick::{self, CellSpans};
use crate::trace::Tracer;
use crate::{counts, stats, Ctx, Outcome};
use snoc_core::cellcache::{cell_key, decode_metrics, CacheSource, CellCache};
use snoc_core::RunSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Fresh stores primed during set-up.
const PRIMINGS: usize = 3;

/// Deletes the private store when the run ends, panics included.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Calls the cache layer directly for every cell of `grid`; returns
/// (disk hits, lookups).
fn probe(
    t: &mut Tracer,
    out: &mut Outcome,
    expect: &mut Expect,
    dir: &Path,
    grid: &[RunSpec],
) -> (u64, u64) {
    let cache = CellCache::new(Some(dir.to_path_buf()));
    let mut hits = 0;
    for spec in grid {
        let key = t
            .call("cellcache.key", || cell_key(spec))
            .expect("plain cells have a key");
        let found = t.call("cellcache.lookup", || cache.lookup(key));
        if found.source == Some(CacheSource::Disk) {
            hits += 1;
        }
        let path = cache.entry_path(key).expect("the cache has a store");
        let decoded = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| t.call("cellcache.decode", || decode_metrics(&text, key)));
        match decoded {
            Ok(m) => {
                let bad = expect.check(&spec.label, &crate::check::cell_digest(&m, key));
                if !bad.is_empty() {
                    out.note(bad.join("; "));
                }
            }
            Err(e) => out.note(format!("{}: decode failed: {e}", spec.label)),
        }
    }
    (hits, grid.len() as u64)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut expect = quick::expect_for(ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let _cleanup = RemoveOnDrop(ctx.scratch.clone());
    let dir = ctx.scratch.join("cellstore");
    let grid = quick::grid(ctx.seed);
    let cycles: u64 = grid
        .iter()
        .map(|s| s.cfg.warmup_cycles + s.cfg.measure_cycles)
        .sum();

    // Prime PRIMINGS fresh stores and keep the first; the median
    // priming time is the set-up time.
    let mut setup = Vec::new();
    let mut primed = Vec::new();
    for i in 0..PRIMINGS {
        let store = ctx.scratch.join(format!("prime-{i}"));
        let t0 = Instant::now();
        let results = quick::runner(true, None)
            .cache_dir(&store)
            .run_grid("perfbench-prime", grid.clone());
        setup.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            std::fs::rename(&store, &dir).unwrap_or_else(|e| out.note(format!("{e}")));
            primed = results;
        } else {
            let _ = std::fs::remove_dir_all(&store);
        }
    }
    quick::check_cells(&mut out, &mut expect, &grid, &primed, false);
    let stored = std::fs::read_dir(&dir)
        .map(|d| d.filter_map(Result::ok).count())
        .unwrap_or(0);
    if stored != grid.len() {
        out.note(format!(
            "primed store holds {stored} entries, not {}",
            grid.len()
        ));
    }

    let spans = Arc::new(CellSpans::default());
    let (mut kcps, mut cps) = (Vec::new(), Vec::new());
    let (mut hits, mut lookups) = (0, 0);
    let mut served_counts = None;
    ctx.units(|ctx, traced| {
        let cells = grid.clone();
        let t1 = Instant::now();
        let runner = quick::runner(true, traced.then(|| Arc::clone(&spans))).cache_dir(&dir);
        let (results, _) =
            quick::run_grid(&mut ctx.tracer, &runner, traced.then_some(&*spans), cells);
        let measure_s = t1.elapsed().as_secs_f64();
        out.unit_time(traced, measure_s);
        if !traced {
            kcps.push(cycles as f64 / measure_s / 1e3);
            cps.push(grid.len() as f64 / measure_s);
        }
        let ok = quick::check_cells(&mut out, &mut expect, &grid, &results, true);
        if served_counts.is_none() && ok.len() == grid.len() {
            served_counts = Some(counts::from_metrics(&ok));
        }
        if traced {
            let (h, n) = probe(&mut ctx.tracer, &mut out, &mut expect, &dir, &grid);
            hits += h;
            lookups += n;
        }
    });

    out.e2e.insert("setup_s", stats::median(&setup));
    out.e2e.insert("kcycles_per_s", stats::median(&kcps));
    out.e2e.insert("cells_per_s", stats::median(&cps));
    if let Some(layer) = served_counts {
        out.layer.extend(layer);
    }
    let t = &ctx.tracer;
    if let (Some(key), Some(lookup), Some(decode)) = (
        t.stats("cellcache.key"),
        t.stats("cellcache.lookup"),
        t.stats("cellcache.decode"),
    ) {
        out.layer.insert("cellcache.key_us", key.p50_ns / 1e3);
        out.layer.insert("cellcache.lookup_us", lookup.p50_ns / 1e3);
        out.layer.insert("cellcache.decode_us", decode.p50_ns / 1e3);
        out.layer
            .insert("cellcache.hit_ratio", hits as f64 / lookups.max(1) as f64);
    }
    if let Some(cell) = t.stats("sweep.cell") {
        out.layer.insert("sweep.cell_ms_p50", cell.p50_ns / 1e6);
        out.layer.insert("sweep.cell_ms_p90", cell.p90_ns / 1e6);
    }
    out
}
