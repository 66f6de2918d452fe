//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment>... [--full] [--metrics json|text]
//!
//! experiments: table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 all
//! --full           larger state sizes and longer runs (default: quick)
//! --metrics json   after each experiment, print one JSON line per engine
//!                  snapshot: {"experiment":...,"label":...,"metrics":{...}}
//! --metrics text   same, rendered as human-readable reports
//! ```

use std::time::Instant;

use sdg_bench::{
    fig10_stragglers, fig11_recovery, fig12_sync_async, fig13_overhead, fig5_cf_ratio,
    fig6_state_size, fig7_kv_scale, fig8_wc_window, fig9_lr_scale, table1, util, Scale,
};
use sdg_common::obs::json::escape;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    Json,
    Text,
}

fn parse_metrics_mode(v: &str) -> MetricsMode {
    match v {
        "json" => MetricsMode::Json,
        "text" => MetricsMode::Text,
        other => {
            eprintln!("--metrics expects `json` or `text`, got `{other}`");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let mut metrics: Option<MetricsMode> = None;
    let mut selected: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(v) = a.strip_prefix("--metrics=") {
            metrics = Some(parse_metrics_mode(v));
        } else if a == "--metrics" {
            i += 1;
            metrics = Some(parse_metrics_mode(
                args.get(i).map(String::as_str).unwrap_or(""),
            ));
        } else if !a.starts_with("--") {
            selected.push(a);
        }
        i += 1;
    }
    if selected.is_empty() || selected.contains(&"all") {
        selected = vec![
            "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
        ];
    }

    println!(
        "SDG reproduction harness — scale: {:?} (pass --full for larger runs)\n",
        scale
    );
    for name in selected {
        let t0 = Instant::now();
        match name {
            "table1" => table1::print(),
            "fig5" => fig5_cf_ratio::print(&fig5_cf_ratio::run(scale)),
            "fig6" => fig6_state_size::print(&fig6_state_size::run(scale)),
            "fig7" => fig7_kv_scale::print(&fig7_kv_scale::run(scale)),
            "fig8" => fig8_wc_window::print(&fig8_wc_window::run(scale)),
            "fig9" => fig9_lr_scale::print(&fig9_lr_scale::run(scale)),
            "fig10" => fig10_stragglers::print(&fig10_stragglers::run(scale)),
            "fig11" => fig11_recovery::print(&fig11_recovery::run(scale)),
            "fig12" => fig12_sync_async::print(&fig12_sync_async::run(scale)),
            "fig13" => fig13_overhead::print(&fig13_overhead::run(scale)),
            other => {
                eprintln!("unknown experiment `{other}`; see --help in the module docs");
                std::process::exit(2);
            }
        }
        let snapshots = util::drain_snapshots();
        match metrics {
            Some(MetricsMode::Json) => {
                for (label, snap) in &snapshots {
                    println!(
                        "{{\"experiment\":\"{name}\",\"label\":{},\"metrics\":{}}}",
                        escape(label),
                        snap.to_json()
                    );
                }
            }
            Some(MetricsMode::Text) => {
                for (label, snap) in &snapshots {
                    println!("== {name} / {label} ==");
                    print!("{}", snap.to_text());
                }
            }
            None => {}
        }
        println!("[{name} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}
