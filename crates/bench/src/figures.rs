//! Shared rendering of the paper's figures: grouped boxplot blocks with
//! a common log axis, like the paper's per-device boxplot panels.

use spmv_analysis::{ascii_boxplot_row, BoxStats, Table};

/// `println!` into a `String`: the figures return their text instead of
/// printing it, so a test can pin it.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}
pub(crate) use outln;

/// One labelled distribution in a panel.
pub struct Series {
    /// Row label (e.g. a footprint class or a format name).
    pub label: String,
    /// The raw values (GFLOP/s or GFLOPs/W).
    pub values: Vec<f64>,
}

/// Appends a panel of boxplots with a shared log axis to `out`,
/// returning the rendered stats for CSV emission.
pub fn render_panel(
    out: &mut String,
    title: &str,
    series: &[Series],
) -> Vec<(String, Option<BoxStats>)> {
    outln!(out, "\n--- {title} ---");
    let all: Vec<f64> = series
        .iter()
        .flat_map(|s| s.values.iter().copied())
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    let stats_out: Vec<(String, Option<BoxStats>)> =
        series.iter().map(|s| (s.label.clone(), BoxStats::from_values(&s.values))).collect();
    if all.is_empty() {
        outln!(out, "(no data)");
        return stats_out;
    }
    let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = all.iter().copied().fold(0.0f64, f64::max);
    let width = 56;
    let label_w = series.iter().map(|s| s.label.len()).max().unwrap_or(8).max(8);
    for (label, st) in &stats_out {
        match st {
            Some(st) => {
                let plot = ascii_boxplot_row(st, lo, hi, width, true);
                outln!(out, "{label:label_w$} {plot} med {:>8.2}  n={}", st.median, st.count);
            }
            None => outln!(out, "{label:label_w$} (no runnable matrices)"),
        }
    }
    outln!(out, "{:label_w$} log axis: {:.2} .. {:.2}", "", lo, hi, label_w = label_w);
    stats_out
}

/// Renders panel stats into a CSV table (one row per series).
pub fn panel_csv(figure: &str, panel: &str, stats: &[(String, Option<BoxStats>)]) -> Table {
    let mut t =
        Table::new(&["figure", "panel", "series", "n", "min", "q1", "median", "q3", "max", "mean"]);
    for (label, st) in stats {
        let mut row = vec![figure.to_string(), panel.to_string(), label.clone()];
        match st {
            Some(s) => {
                row.push(s.count.to_string());
                row.extend([s.min, s.q1, s.median, s.q3, s.max, s.mean].map(|v| format!("{v:.4}")));
            }
            None => {
                row.push("0".into());
                row.extend(std::iter::repeat_n(String::new(), 6));
            }
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_renders_and_reports() {
        let series = vec![
            Series { label: "a".into(), values: vec![1.0, 2.0, 3.0] },
            Series { label: "b".into(), values: vec![] },
        ];
        let mut text = String::new();
        let stats = render_panel(&mut text, "test", &series);
        assert!(text.starts_with("\n--- test ---\na") && text.ends_with('\n'), "{text:?}");
        assert_eq!(stats.len(), 2);
        assert!(stats[0].1.is_some());
        assert!(stats[1].1.is_none());
        let csv = panel_csv("figX", "p", &stats).to_csv();
        assert!(csv.contains("figX,p,a,3"));
        assert!(csv.contains("figX,p,b,0"));
    }
}
