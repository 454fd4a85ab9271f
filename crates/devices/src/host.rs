//! The `Host` device profile: the machine the kernels actually run on,
//! described by **measurements** instead of a model.
//!
//! The nine testbeds of Table II are extrapolated by the analytic model
//! (`crate::model`); this one is not modeled at all. Its campaign
//! records are timed sequential `spmv` calls of the real kernels over a
//! calibration lattice, swept offline by `engine_throughput
//! --calibrate` (in `spmv-bench`) and committed as the text table
//! `host_table.txt` beside this file. [`HostTable::records`] turns that
//! table into the same [`Record`]s a modeled campaign produces, so the
//! engine's selector is fitted by the one path every device uses.
//!
//! A different machine is served by re-running the sweep there and
//! fitting a selector from its table (see the README, "calibrating for
//! your host").
//!
//! ## Table format
//!
//! Line-oriented text. `#` lines are comments (the sweep writes its
//! configuration and how the margin was measured there). Then, in
//! order: the magic line, `cpu_model`, `vector_isa`, `lanes`, `git_rev`,
//! `margin` and `formats` header lines, and one `m` line per swept
//! matrix — `m <nnz> <footprint MB> <avg nnz/row> <skew> <cross-row
//! sim> <neighbours>` followed by one raw GFLOP/s per format of the
//! `formats` line (`0` where the format refused the matrix).

use crate::campaign::Record;
use crate::specs::{DeviceClass, DeviceSpec};
use spmv_formats::{FormatKind, LaneWidth};

/// Name of the measured profile (`EngineConfig::device`, `Record::device`).
pub const NAME: &str = "Host";

const MAGIC: &str = "spmv-host-table v1";
const COMMITTED: &str = include_str!("host_table.txt");

/// A table that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostTableError {
    /// 1-based line where parsing failed (one past the last line when
    /// the table ends early).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for HostTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host table line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for HostTableError {}

/// One swept matrix: its measured features and what every format of
/// the table ran at.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMatrix {
    /// Number of nonzeros.
    pub nnz: usize,
    /// CSR memory footprint in MB.
    pub footprint_mb: f64,
    /// Average nonzeros per row.
    pub avg_nnz: f64,
    /// Skew coefficient.
    pub skew: f64,
    /// Cross-row similarity.
    pub crs: f64,
    /// Average number of neighbors.
    pub neigh: f64,
    /// Raw GFLOP/s per format, in [`HostTable::formats`] order; `0.0`
    /// where the format refused the matrix.
    pub gflops: Vec<f64>,
}

/// A calibration table: the host it was swept on and the timings.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTable {
    /// CPU model string of the swept host.
    pub cpu_model: String,
    /// Vector instruction set the lane kernels used (`avx512`, `avx2`,
    /// `scalar`).
    pub vector_isa: String,
    /// Lane width every format was built at — the width the `Host`
    /// profile serves at (its SELL-C-σ formats keep their pinned C).
    pub lanes: usize,
    /// Git revision of the kernels that were timed.
    pub git_rev: String,
    /// Relative throughput lead a costlier format must have over a
    /// cheaper one to be labeled the winner (see [`HostTable::records`]).
    pub margin: f64,
    /// The swept formats, in column order.
    pub formats: Vec<FormatKind>,
    /// The swept matrices.
    pub matrices: Vec<HostMatrix>,
}

/// How much a format costs beyond its kernel time, as a rank: Naive-CSR
/// (a memcpy to build, no lane dispatch) below the other CSR-family
/// formats (a memcpy and a schedule; the fastest panel kernels) below
/// everything that re-lays the matrix out.
fn cost_rank(kind: FormatKind) -> i32 {
    match kind {
        FormatKind::NaiveCsr => 0,
        FormatKind::VectorizedCsr
        | FormatKind::BalancedCsr
        | FormatKind::Csr5
        | FormatKind::MergeCsr => 1,
        _ => 2,
    }
}

/// `true` for the formats that keep the CSR arrays as they are.
pub fn is_csr_family(kind: FormatKind) -> bool {
    cost_rank(kind) < 2
}

impl HostTable {
    /// The table committed with this crate. It is checked by the
    /// crate's tests, so failing to parse is a build defect.
    pub fn committed() -> HostTable {
        HostTable::parse(COMMITTED).expect("the committed host table parses (tested)")
    }

    /// The committed table's `Host` profile, without reading the
    /// matrix lines (what [`crate::device_by_name`] hands out).
    pub fn committed_spec() -> DeviceSpec {
        HostTable::parse_lines(COMMITTED, false)
            .expect("the committed host table parses (tested)")
            .spec()
    }

    /// Parses a table written by [`HostTable::render`].
    pub fn parse(text: &str) -> Result<HostTable, HostTableError> {
        HostTable::parse_lines(text, true)
    }

    fn parse_lines(text: &str, with_matrices: bool) -> Result<HostTable, HostTableError> {
        let err = |line: usize, message: String| HostTableError { line, message };
        let mut lines =
            text.lines().enumerate().map(|(i, l)| (i + 1, l)).filter(|(_, l)| !l.starts_with('#'));
        let mut header = |key: &str| -> Result<(usize, &str), HostTableError> {
            let (n, line) = lines.next().ok_or_else(|| {
                err(text.lines().count() + 1, format!("table ends before `{key}`"))
            })?;
            let value = if key == MAGIC {
                (line == MAGIC).then_some("")
            } else {
                line.strip_prefix(key).and_then(|rest| rest.strip_prefix(' '))
            };
            value.map(|v| (n, v)).ok_or_else(|| err(n, format!("expected `{key}`, got {line:?}")))
        };
        header(MAGIC)?;
        let cpu_model = header("cpu_model")?.1.to_string();
        let vector_isa = header("vector_isa")?.1.to_string();
        let (n, lanes) = header("lanes")?;
        let lanes = match lanes.parse::<usize>() {
            Ok(w) if LaneWidth::ALL.iter().any(|l| l.lanes() == w) => w,
            _ => return Err(err(n, format!("lanes must be 1, 4 or 8, got {lanes:?}"))),
        };
        let git_rev = header("git_rev")?.1.to_string();
        let (n, margin) = header("margin")?;
        let margin = match margin.parse::<f64>() {
            Ok(m) if (0.0..1.0).contains(&m) => m,
            _ => return Err(err(n, format!("margin must be in [0, 1), got {margin:?}"))),
        };
        let (n, names) = header("formats")?;
        let formats = names
            .split(' ')
            .map(|name| {
                FormatKind::from_name(name)
                    .ok_or_else(|| err(n, format!("unknown format {name:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if !formats.iter().copied().any(is_csr_family) {
            return Err(err(n, "no CSR-family format: nothing accepts every matrix".into()));
        }
        if (1..formats.len()).any(|i| formats[..i].contains(&formats[i])) {
            return Err(err(n, "a format is listed twice".into()));
        }

        let mut matrices = Vec::new();
        for (n, line) in lines.take_while(|_| with_matrices) {
            let mut fields = line.split(' ');
            if fields.next() != Some("m") {
                return Err(err(n, format!("expected an `m` line, got {line:?}")));
            }
            let mut number = |what: &str| -> Result<f64, HostTableError> {
                let field = fields.next().ok_or_else(|| err(n, format!("missing {what}")))?;
                match field.parse::<f64>() {
                    Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
                    _ => Err(err(n, format!("{what} must be finite and ≥ 0, got {field:?}"))),
                }
            };
            let nnz = number("nnz")?;
            let mut m = HostMatrix {
                nnz: nnz as usize,
                footprint_mb: number("footprint")?,
                avg_nnz: number("avg nnz/row")?,
                skew: number("skew")?,
                crs: number("cross-row similarity")?,
                neigh: number("neighbours")?,
                gflops: Vec::with_capacity(formats.len()),
            };
            if nnz.fract() != 0.0 || m.nnz == 0 {
                return Err(err(n, format!("nnz must be a positive integer, got {nnz}")));
            }
            for kind in &formats {
                m.gflops.push(number(kind.name())?);
            }
            if fields.next().is_some() {
                return Err(err(n, "more values than formats".into()));
            }
            if !formats.iter().zip(&m.gflops).any(|(&k, &g)| is_csr_family(k) && g > 0.0) {
                return Err(err(n, "no CSR-family format ran this matrix".into()));
            }
            matrices.push(m);
        }
        Ok(HostTable { cpu_model, vector_isa, lanes, git_rev, margin, formats, matrices })
    }

    /// Renders the table as text, `comments` first (one `#` line each).
    /// Numbers print in Rust's shortest round-trip form, so
    /// [`HostTable::parse`] of the result returns this table.
    pub fn render(&self, comments: &[String]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in comments {
            writeln!(out, "# {c}").expect("writing to a String");
        }
        let names: Vec<&str> = self.formats.iter().map(|k| k.name()).collect();
        write!(
            out,
            "{MAGIC}\ncpu_model {}\nvector_isa {}\nlanes {}\ngit_rev {}\nmargin {}\nformats {}\n",
            self.cpu_model,
            self.vector_isa,
            self.lanes,
            self.git_rev,
            self.margin,
            names.join(" ")
        )
        .expect("writing to a String");
        for m in &self.matrices {
            write!(
                out,
                "m {} {} {} {} {} {}",
                m.nnz, m.footprint_mb, m.avg_nnz, m.skew, m.crs, m.neigh
            )
            .expect("writing to a String");
            for g in &m.gflops {
                write!(out, " {g}").expect("writing to a String");
            }
            out.push('\n');
        }
        out
    }

    /// The `Host` device profile this table describes. Its formats are
    /// the whole registry — every kernel runs on the host; what a
    /// selector can recommend is what its table labels, and a selector
    /// fitted from another host's table may name other columns than the
    /// table compiled in here. `dp_flops_per_cycle` is set so that
    /// [`DeviceSpec::lane_profile`] is the lane width the table was
    /// swept at. Every other constant is zero — they parameterize the
    /// analytic model, and nothing models this device
    /// ([`crate::estimate_with`] refuses it).
    pub fn spec(&self) -> DeviceSpec {
        DeviceSpec {
            name: NAME,
            class: DeviceClass::Cpu,
            cores: 1,
            freq_ghz: 0.0,
            dp_flops_per_cycle: 2.0 * self.lanes as f64,
            llc_bytes: 0,
            mem_bw_gbs: 0.0,
            llc_bw_gbs: 0.0,
            idle_w: 0.0,
            max_w: 0.0,
            sched_units: 1,
            nnz_half_util: 0.0,
            formats: FormatKind::ALL.to_vec(),
            fpga: None,
        }
    }

    /// The throughput of `kind` on `m` as a label candidate: the raw
    /// GFLOP/s divided by `1 + margin` once per `cost_rank` step, so
    /// that the plain "fastest wins" reduction of selector training
    /// resolves a lead inside the margin to the cheaper format.
    pub fn label_gflops(&self, kind: FormatKind, raw: f64) -> f64 {
        raw / (1.0 + self.margin).powi(cost_rank(kind))
    }

    /// The table as campaign records, one per (matrix, format) that
    /// ran (a refusal leaves none): device [`NAME`], matrix ids `h0, h1,
    /// …`, `watts` zero (nothing measured power).
    ///
    /// `gflops` is [`HostTable::label_gflops`], not the raw timing: a
    /// measured win smaller than the sweep's own repeat spread is not a
    /// win, and the cheaper format should keep the label — a CSR-family
    /// format over one that re-lays the matrix out, Naive-CSR over the
    /// other CSR-family formats. Modeled campaigns are noise-free and
    /// get no such treatment. The raw numbers stay in
    /// [`HostTable::matrices`].
    pub fn records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.matrices.len() * self.formats.len());
        for (i, m) in self.matrices.iter().enumerate() {
            let matrix_id = format!("h{i}");
            for (&kind, &raw) in self.formats.iter().zip(&m.gflops) {
                if raw <= 0.0 {
                    continue;
                }
                out.push(Record {
                    matrix_id: matrix_id.clone(),
                    device: NAME.to_string(),
                    format: kind.name().to_string(),
                    gflops: self.label_gflops(kind, raw),
                    watts: 0.0,
                    failed: None,
                    footprint_mb: m.footprint_mb,
                    avg_nnz: m.avg_nnz,
                    skew: m.skew,
                    crs: m.crs,
                    neigh: m.neigh,
                    nnz: m.nnz,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelFailure;
    use crate::{all_devices, device_by_name, estimate, MatrixSummary};

    const SMALL: &str = "# a comment\n\
        spmv-host-table v1\n\
        cpu_model Some CPU @ 2 GHz\n\
        vector_isa avx2\n\
        lanes 4\n\
        git_rev abc123\n\
        margin 0.1\n\
        formats Naive-CSR Vectorized-CSR ELL SELL-C-s\n\
        m 1000 0.0125 10 0 0.5 0.95 1 1.05 0 1.3\n\
        # comments may sit anywhere\n\
        m 2000000 24.5 20.25 1000 0.05 0.05 1.5 2 0.5 2.1\n";

    #[test]
    fn committed_table_is_well_formed() {
        let table = HostTable::committed();
        assert!(table.matrices.len() >= 100, "{} matrices", table.matrices.len());
        assert!(table.formats.contains(&FormatKind::NaiveCsr));
        assert!(!table.cpu_model.is_empty() && !table.git_rev.is_empty());
        for (i, m) in table.matrices.iter().enumerate() {
            let features = [m.footprint_mb, m.avg_nnz, m.skew, m.crs, m.neigh];
            assert!(features.iter().all(|f| f.is_finite() && *f >= 0.0), "matrix {i}: {m:?}");
            assert!(m.nnz > 0 && m.gflops.len() == table.formats.len(), "matrix {i}");
            assert!(m.gflops.iter().all(|g| g.is_finite() && *g >= 0.0), "matrix {i}");
        }
        // As records: one per pair that ran, every format name
        // resolves, and every matrix has a CSR-family run to fall back on.
        let records = table.records();
        let ran = table.matrices.iter().flat_map(|m| &m.gflops).filter(|g| **g > 0.0).count();
        assert_eq!(records.len(), ran);
        assert!(records.iter().all(|r| r.device == NAME && r.failed.is_none()));
        assert!(records.iter().all(|r| FormatKind::from_name(&r.format).is_some()));
        for i in 0..table.matrices.len() {
            let id = format!("h{i}");
            assert!(records.iter().any(|r| {
                r.matrix_id == id && is_csr_family(FormatKind::from_name(&r.format).unwrap())
            }));
        }
        // The text is canonical: rendering what was parsed parses back.
        assert_eq!(HostTable::parse(&table.render(&[])).unwrap(), table);
    }

    #[test]
    fn parse_reads_header_matrices_and_comments() {
        let table = HostTable::parse(SMALL).unwrap();
        assert_eq!(table.cpu_model, "Some CPU @ 2 GHz");
        assert_eq!((table.vector_isa.as_str(), table.lanes, table.margin), ("avx2", 4, 0.1));
        assert_eq!(table.formats.len(), 4);
        assert_eq!(table.matrices.len(), 2);
        assert_eq!(table.matrices[1].nnz, 2_000_000);
        assert_eq!(table.matrices[1].gflops, vec![1.5, 2.0, 0.5, 2.1]);
        let text = table.render(&["kept as a comment".to_string()]);
        assert!(text.starts_with("# kept as a comment\nspmv-host-table v1\n"));
        assert_eq!(HostTable::parse(&text).unwrap(), table);
    }

    #[test]
    fn records_skip_refusals_and_carry_the_margin() {
        let table = HostTable::parse(SMALL).unwrap();
        let records = table.records();
        assert_eq!(records.len(), 7, "ELL refused h0");
        assert!(!records.iter().any(|r| r.matrix_id == "h0" && r.format == "ELL"));
        let of = |id: &str, format: &str| {
            records.iter().find(|r| r.matrix_id == id && r.format == format).unwrap()
        };
        assert_eq!(of("h1", "ELL").failed, None);
        assert_eq!((of("h1", "Naive-CSR").nnz, of("h1", "Naive-CSR").skew), (2_000_000, 1000.0));
        // h0: Vectorized-CSR leads Naive-CSR by 5% and SELL-C-s leads it
        // by 30% — one and two cost ranks up at a 10% margin, so only
        // the second lead (1.3 > 1.1²) survives.
        assert_eq!(of("h0", "Naive-CSR").gflops, 1.0);
        assert!(of("h0", "Vectorized-CSR").gflops < 1.0);
        assert!(of("h0", "SELL-C-s").gflops > 1.0);
        // h1: Vectorized-CSR 2.0 vs SELL-C-s 2.1 — inside the margin,
        // the CSR-family format keeps the label.
        assert!(of("h1", "Vectorized-CSR").gflops > of("h1", "SELL-C-s").gflops);
        assert!(of("h1", "Vectorized-CSR").gflops > of("h1", "Naive-CSR").gflops);
    }

    #[test]
    fn damaged_tables_are_typed_errors() {
        // Every truncation of a valid table either parses (a cut at a
        // line end leaves a shorter valid table) or is a typed error.
        for cut in 0..SMALL.len() {
            if let Err(e) = HostTable::parse(&SMALL[..cut]) {
                assert!(e.line >= 1 && !e.message.is_empty(), "cut {cut}: {e}");
            }
        }
        assert_eq!(HostTable::parse("").unwrap_err().line, 1);
        let cases = [
            ("spmv-host-table v1\n", "v9\n", "expected `spmv-host-table v1`"),
            ("lanes 4", "lanes 3", "lanes must be"),
            ("margin 0.1", "margin -1", "margin must be"),
            ("margin 0.1", "margin NaN", "margin must be"),
            ("ELL SELL-C-s", "ELL SELL-9-s", "unknown format"),
            ("ELL SELL-C-s", "ELL ELL", "listed twice"),
            ("formats Naive-CSR Vectorized-CSR", "formats COO HYB", "no CSR-family format"),
            ("m 1000 ", "m 0 ", "positive integer"),
            ("m 1000 ", "m 10.5 ", "positive integer"),
            ("0.0125 10", "0.0125 inf", "finite"),
            ("0.0125 10", "0.0125 ten", "finite"),
            ("1 1.05 0 1.3", "1 1.05 0", "missing SELL-C-s"),
            ("1 1.05 0 1.3", "1 1.05 0 1.3 7", "more values than formats"),
            ("1 1.05 0 1.3", "0 0 0 1.3", "no CSR-family format ran"),
            ("m 2000000", "x 2000000", "expected an `m` line"),
        ];
        for (from, to, want) in cases {
            assert!(SMALL.contains(from), "{from:?} is not in the sample");
            let e = HostTable::parse(&SMALL.replacen(from, to, 1)).unwrap_err();
            assert!(e.message.contains(want), "{to:?}: {e}");
            assert!(e.to_string().starts_with(&format!("host table line {}", e.line)));
        }
    }

    #[test]
    fn host_is_a_tenth_profile_outside_the_model() {
        assert!(all_devices().iter().all(|d| d.name != NAME), "Table II stays nine");
        let table = HostTable::committed();
        let host = device_by_name(NAME).unwrap();
        assert_eq!(host, table.spec());
        assert_eq!(host.formats, FormatKind::ALL, "every kernel runs on the host");
        assert_eq!(host.lane_profile().width.lanes(), table.lanes);
        assert_eq!(host.scaled(16384.0).lane_profile(), table.spec().lane_profile());
        let summary = MatrixSummary::from_csr("m", 0, &spmv_core::CsrMatrix::identity(64));
        let refused = estimate(&host, FormatKind::NaiveCsr, &summary);
        assert!(matches!(refused, Err(ModelFailure::Unmodeled)), "{refused:?}");
        assert!(crate::Campaign::new(16.0).with_devices(&[NAME]).devices.is_empty());
    }
}
