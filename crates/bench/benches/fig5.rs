//! Figure 5 — SPLASH-2 application execution times on the original (M4)
//! system vs CableS (M4 on pthreads) for 1, 4, 8, 16 and 32 processors.
//!
//! Times are the parallel section (the paper shows CableS's remaining
//! overhead concentrated in initialization/termination; the parallel
//! sections differ only through data placement). Problem sizes are scaled
//! down — shapes, ratios and the OCEAN failure mode are the reproduction
//! target.

use apps::M4Mode;
use cables_bench::{fmt_ns, header, run_app, smoke_mode, write_full_size_artifact, AppId};
use obs::json::Value;
use obs::obj;

/// NIC region limit applied to the OCEAN runs, scaled to the scaled
/// problem size the same way the paper's real NIC limit related to its
/// full-size OCEAN: generous for small processor counts, exceeded by the
/// base system's per-run registrations at 32 processors.
const OCEAN_NIC_LIMIT: u64 = 200;

fn main() {
    // The base-system OCEAN run at 32 processors is EXPECTED to die on
    // the NIC region limit (that is the result); silence its panic print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.to_string();
        if msg.contains("registration failed (paper") {
            return;
        }
        default_hook(info);
    }));
    header(
        "Figure 5: SPLASH-2 M4 vs M4-on-pthreads execution times",
        "paper Fig. 5 (§3.4)",
    );
    // `--test` smoke mode: two cheap apps at two processor counts, same
    // code paths (CI compile-and-run check, like criterion's --test).
    let smoke = smoke_mode();
    let procs_list: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8, 16, 32] };
    let apps: &[AppId] = if smoke {
        &[AppId::Lu, AppId::Radix]
    } else {
        &AppId::ALL
    };

    let mut app_rows = Vec::new();
    for &app in apps {
        println!("--- {} [{}] ---", app.name(), app.scale_note());
        let mut head = format!("{:<10}", "system");
        for p in procs_list {
            head.push_str(&format!(" {p:>12}"));
        }
        println!("{head}");
        let mut runs = Vec::new();
        for mode in [M4Mode::Base, M4Mode::Cables] {
            let mut cells = Vec::new();
            let mut ratios = Vec::new();
            for &procs in procs_list {
                let limit = (app == AppId::Ocean).then_some(OCEAN_NIC_LIMIT);
                let out = run_app(mode, app, procs, limit);
                let parallel_ns = match (out.error, out.parallel_ns) {
                    (None, Some(ns)) => {
                        cells.push(fmt_ns(ns));
                        ratios.push(Some(ns));
                        Some(ns)
                    }
                    (err, _) => {
                        cells.push("FAILED".to_string());
                        ratios.push(None);
                        if let Some(e) = err {
                            let first = e.lines().next().unwrap_or("");
                            println!("    [{mode:?} x{procs}] {first}");
                        }
                        None
                    }
                };
                runs.push(obj! {
                    "mode" => format!("{mode:?}"),
                    "procs" => procs,
                    "parallel_ns" => parallel_ns,
                    "failed" => parallel_ns.is_none(),
                });
            }
            let mut row = format!("{:<10}", format!("{mode:?}"));
            for c in &cells {
                row.push_str(&format!(" {c:>12}"));
            }
            println!("{row}");
        }
        app_rows.push(obj! { "app" => app.name(), "runs" => Value::Arr(runs) });
        // CableS/Base ratio at 32 procs (paper: within 25% for FFT, LU,
        // RAYTRACE, WATER; worse for RADIX and VOLREND; OCEAN base fails).
        println!();
    }
    let json = obj! { "bench" => "fig5", "apps" => Value::Arr(app_rows) };
    println!("paper shape targets:");
    println!("  - FFT/LU/WATER/RAYTRACE: CableS within ~25% of base at 32 procs");
    println!("  - OCEAN: base faster (write-through optimization) but FAILS at 32");
    println!("    procs on registration limits; CableS completes");
    println!("  - RADIX/VOLREND: CableS degraded by 64 KB-granularity placement");
    write_full_size_artifact("BENCH_fig5.json", &json);
}
