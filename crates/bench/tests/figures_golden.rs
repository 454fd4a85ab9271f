//! The paper's figures and tables for the nine modeled devices, pinned
//! byte for byte: the gate a change to the device models, the format
//! registry or the selector must pass when it claims the figures do not
//! move.
//!
//! The constants are `xxh64` (seed 0) of what `figures <name> --size
//! small --stride 40 --threads 1 --scale 128` prints; for every
//! subcommand that is the stdout of the per-figure binary it replaced
//! (`campaign`'s wall-clock line aside, which now goes to stderr).
//! `--scale 128` is for the debug profile: at the default scale the
//! Table III stand-ins alone take this test minutes. To re-pin after an
//! intended change, run the test: a mismatch prints the new constant
//! and the text.

use spmv_bench::paper::{Ctx, FIGURES};
use spmv_bench::RunConfig;
use spmv_core::hash::xxh64;

const GOLDEN: [(&str, u64); 16] = [
    ("table1_dataset", 0x2d76_2921_af8f_3e24),
    ("table2_testbeds", 0x1194_d4a7_2635_eac3),
    ("table3_validation_suite", 0xa7fb_5a5c_5e3f_e024),
    ("fig1_validation", 0x7c36_92af_7aa3_6c54),
    ("table4_mape", 0xba89_6420_3455_59b8),
    ("fig2_perf_energy", 0x54f5_f231_3a77_9ec7),
    ("fig3_footprint", 0x7032_c4e2_f068_9457),
    ("fig4_rowsize", 0x1e11_906c_fd5f_ed57),
    ("fig5_imbalance", 0xe624_ba7d_00e8_e812),
    ("fig6_irregularity", 0x0d7b_8d1c_3cae_8341),
    ("fig7_formats", 0x50dd_7450_49db_1e58),
    ("fig8_dataset_size", 0x6507_7260_1eea_4609),
    ("fig9_regularity", 0x372f_3a18_3304_9a63),
    ("ablation_mechanisms", 0x26ae_2d62_b097_1b51),
    ("memsim_validation", 0xde4c_ffad_c188_de9c),
    ("campaign", 0x876e_7343_dc19_471c),
];

fn ctx() -> Ctx {
    let flags = "--size small --stride 40 --threads 1 --scale 128";
    Ctx::new(RunConfig::parse(flags.split(' ').map(String::from)))
}

/// Each subcommand on its own, as `figures <name>` runs it.
#[test]
fn every_figure_prints_its_pinned_text() {
    let mut moved = Vec::new();
    for ((name, figure), (pinned, hash)) in FIGURES.iter().zip(GOLDEN) {
        assert_eq!(*name, pinned, "GOLDEN follows the order of FIGURES");
        let text = figure(&ctx()).text;
        let got = xxh64(text.as_bytes(), 0);
        if got != hash {
            moved.push(format!("(\"{name}\", {got:#018x}) now prints:\n{text}"));
        }
    }
    assert!(moved.is_empty(), "{} figure(s) moved:\n{}", moved.len(), moved.join("\n"));
}

/// `figures all`: one campaign and one validation run behind all
/// sixteen must render what the sixteen separate runs above do.
#[test]
fn one_shared_run_renders_every_figure_as_its_own_run_does() {
    let shared = ctx();
    for ((name, figure), (_, hash)) in FIGURES.iter().zip(GOLDEN) {
        let text = figure(&shared).text;
        assert_eq!(
            xxh64(text.as_bytes(), 0),
            hash,
            "{name} differs under a shared context:\n{text}"
        );
    }
}
