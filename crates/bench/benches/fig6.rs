//! Figure 6 — percentage of misplaced pages under CableS for 4, 8, 16
//! and 32 processors.
//!
//! A page is *misplaced* when its CableS home (bound at WindowsNT's 64 KB
//! mapping granularity) differs from the page-granular first-touch home
//! the original system would have chosen.

use apps::M4Mode;
use cables_bench::{header, run_app, smoke_mode, write_full_size_artifact, AppId};
use obs::json::Value;
use obs::obj;

fn main() {
    header(
        "Figure 6: misplaced pages under CableS",
        "paper Fig. 6 (§3.4)",
    );
    // `--test` smoke mode: two cheap apps at one processor count (CI
    // compile-and-run check, like criterion's --test).
    let smoke = smoke_mode();
    let procs_list: &[usize] = if smoke { &[4] } else { &[4, 8, 16, 32] };
    let apps: &[AppId] = if smoke {
        &[AppId::Lu, AppId::Radix]
    } else {
        &AppId::ALL
    };
    let mut head = format!("{:<15}", "application");
    for p in procs_list {
        head.push_str(&format!(" {p:>8}"));
    }
    println!("{head}");
    println!("{}", "-".repeat(16 + 9 * procs_list.len()));
    let mut app_rows = Vec::new();
    for &app in apps {
        let mut row = format!("{:<15}", app.name());
        let mut points = Vec::new();
        for &procs in procs_list {
            let out = run_app(M4Mode::Cables, app, procs, None);
            assert!(out.error.is_none(), "{}: {:?}", app.name(), out.error);
            let pct = out.placement.misplaced_pct();
            row.push_str(&format!(" {:>8}", format!("{pct:.1}%")));
            points.push(obj! {
                "procs" => procs,
                "misplaced_pct" => Value::fixed(pct, 3),
                "misplaced_pages" => out.placement.misplaced_pages,
                "touched_pages" => out.placement.touched_pages,
            });
        }
        app_rows.push(obj! { "app" => app.name(), "points" => Value::Arr(points) });
        println!("{row}");
    }
    let json = obj! { "bench" => "fig6", "apps" => Value::Arr(app_rows) };
    println!();
    println!("paper shape: misplacement grows with processor count (finer");
    println!("partitions fall inside single 64 KB chunks); the base system's");
    println!("page-granular first touch misplaces nothing by construction.");
    write_full_size_artifact("BENCH_fig6.json", &json);
}
