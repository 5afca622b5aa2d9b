//! `perfbench --self-test`: shows that the output checks have teeth
//! and that runs are hermetic.
//!
//! 1. Each workload runs one unit at the default seed with one
//!    expected value corrupted (an oracle value, a golden digest, or a
//!    forgotten delivery) and must come back incorrect.
//! 2. The `SNOC_*` variables the simulator's entry points can read are
//!    set to values that would change every output — audit, telemetry,
//!    faults, sharding, worker count, a cache directory — and each
//!    workload must still pass its checks with outputs identical to a
//!    run without them. A positive control confirms the variables do
//!    change the output of a runner that is *not* pinned to an empty
//!    environment snapshot.

use crate::trace::Tracer;
use crate::{quick, run_workload, work_dir, Ctx, Outcome, WORKLOADS};
use snoc_common::config::SystemConfig;
use snoc_core::SweepRunner;
use std::process::ExitCode;

const ENV: [(&str, &str); 9] = [
    ("SNOC_THREADS", "1"),
    ("SNOC_SHARDS", "4"),
    ("SNOC_AUDIT", "1"),
    ("SNOC_TELEMETRY", "1"),
    ("SNOC_FAULTS", "1"),
    ("SNOC_SWEEP_CACHE", "0"),
    ("SNOC_SWEEP_WARM", "0"),
    ("SNOC_PROGRESS", "1"),
    ("SNOC_CACHE_DIR", ""),
];

fn one_unit(workload: &str, perturb: bool) -> Outcome {
    let ctx = Ctx {
        seed: SystemConfig::default().seed,
        default_seed: true,
        seconds: 0.0,
        tracer: Tracer::new(false),
        perturb,
        scratch: work_dir().join(format!("perfbench-selftest-{}", std::process::id())),
    };
    run_workload(workload, ctx).0
}

fn passed(out: &Outcome) -> bool {
    out.failed == 0 && out.problems.is_empty()
}

/// Runs the self-test; exit code 0 when every check holds.
pub fn run() -> ExitCode {
    let mut ok = true;
    let mut report = |good: bool, what: String| {
        eprintln!("self-test: {} {what}", if good { "PASS" } else { "FAIL" });
        ok &= good;
    };

    let mut clean = Vec::new();
    for w in WORKLOADS {
        let bad = one_unit(w, true);
        report(
            !passed(&bad),
            format!(
                "{w}: a corrupted expectation is caught ({} failed)",
                bad.failed
            ),
        );
        let good = one_unit(w, false);
        report(passed(&good), format!("{w}: passes unperturbed"));
        clean.push(good);
    }

    let cache_dir = work_dir().join(format!("perfbench-selftest-env-{}", std::process::id()));
    for (k, v) in ENV {
        let v = if k == "SNOC_CACHE_DIR" {
            cache_dir.to_string_lossy().into_owned()
        } else {
            v.to_string()
        };
        std::env::set_var(k, v);
    }
    // Positive control: a runner that keeps the snapshot it captured
    // from the environment does see the variables.
    let mut cell = quick::grid(SystemConfig::default().seed);
    cell.truncate(1);
    let seen = SweepRunner::new().run_grid("control", cell);
    let instrumented = seen[0]
        .outcome
        .as_ref()
        .is_ok_and(|m| m.audit.is_some() && m.faults.is_some());
    report(
        instrumented,
        "control: an unpinned runner picks up SNOC_AUDIT/SNOC_FAULTS".into(),
    );
    for (w, plain) in WORKLOADS.iter().zip(&clean) {
        let env = one_unit(w, false);
        let same = env.layer == plain.layer && env.attempted == plain.attempted;
        report(
            passed(&env) && same,
            format!("{w}: identical outputs with SNOC_* set"),
        );
    }
    for (k, _) in ENV {
        std::env::remove_var(k);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
