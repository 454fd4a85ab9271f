//! `figures <name>...|all [flags]` — the paper's figures and tables
//! (`spmv_bench::paper::FIGURES`), any number of them over one shared
//! campaign and one shared validation run.
//!
//! ```text
//! cargo run --release -p spmv-bench --bin figures -- fig4_rowsize fig7_formats --stride 12
//! cargo run --release -p spmv-bench --bin figures -- all --size small --csv results
//! ```

use spmv_bench::args::RUN_USAGE;
use spmv_bench::paper::{Ctx, FIGURES};
use spmv_bench::RunConfig;

fn main() {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    let flags =
        names.split_off(names.iter().position(|a| a.starts_with('-')).unwrap_or(names.len()));
    let ctx = Ctx::new(RunConfig::parse(flags.into_iter()));
    let known = |name: &String| name == "all" || FIGURES.iter().any(|(n, _)| n == name);
    if names.is_empty() || !names.iter().all(known) {
        let all: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: {RUN_USAGE}\nnames: {}", all.join(" "));
        std::process::exit(2);
    }
    let selected = FIGURES.iter().filter(|(n, _)| names.iter().any(|a| a == "all" || a == n));
    for (i, (_, figure)) in selected.enumerate() {
        if i > 0 {
            println!();
        }
        let rendered = figure(&ctx);
        print!("{}", rendered.text);
        for (name, content) in &rendered.csvs {
            ctx.cfg.write_csv(name, content);
        }
    }
}
