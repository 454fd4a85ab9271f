//! End-to-end test of engine snapshot / restore (tier-1).
//!
//! The persistence acceptance bar:
//!
//! 1. **Snapshot under load** — the snapshot is taken while serve
//!    threads are hammering the engine; export locks each shard
//!    briefly, so the stream must still parse, checksum and restore.
//! 2. **Warm restart** — restoring into a fresh engine lands every
//!    conversion that was resident, and serving the same working set
//!    afterwards performs **zero** conversions: every request is a
//!    cache hit on the restored entry, answered with the same format
//!    and the same (dense-checked) result.
//! 3. **Counter reconciliation** — restore moves no counters, and the
//!    standard invariants (`served_selected + served_fallback ==
//!    requests`, `hits + misses + coalesced == lookups`) hold exactly
//!    on the restored engine.

use spmv_suite::core::{vec_mismatch, CsrMatrix, DenseMatrix};
use spmv_suite::engine::{Engine, EngineConfig, EngineCounters, TrainingPlan};
use spmv_suite::gen::dataset::{Dataset, DatasetSize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SCALE: f64 = 16384.0;

fn engine() -> Engine {
    Engine::new(EngineConfig {
        device: "AMD-EPYC-24".into(),
        scale: SCALE,
        k: 1,
        cache_capacity_bytes: 64 << 20,
        threads: 3,
        training: TrainingPlan { size: DatasetSize::Small, stride: 40, base_seed: 0xA11CE },
        ..EngineConfig::default()
    })
    .expect("builtin training")
}

struct Case {
    id: String,
    m: CsrMatrix,
    x: Vec<f64>,
    reference: Vec<f64>,
}

fn cases() -> Vec<Case> {
    let specs =
        Dataset { size: DatasetSize::Small, scale: SCALE, base_seed: 0xB0B }.specs_subsampled(379);
    assert!(specs.len() >= 8, "need a meaningful subsample, got {}", specs.len());
    specs
        .iter()
        .map(|spec| {
            let m = spec.materialize().expect("dataset matrices materialize");
            let x: Vec<f64> = (0..m.cols()).map(|i| ((i * 37 + 11) % 23) as f64 - 11.0).collect();
            let reference = DenseMatrix::from_csr(&m).spmv(&x);
            Case { id: spec.id.clone(), m, x, reference }
        })
        .collect()
}

#[test]
fn snapshot_under_load_restores_into_a_warm_engine() {
    let engine = Arc::new(engine());
    let cases = Arc::new(cases());

    // Convert the whole working set (sync admission: deterministic).
    for case in cases.iter() {
        let mut y = vec![f64::NAN; case.m.rows()];
        engine.spmv(&case.id, &case.m, &case.x, &mut y);
        assert_eq!(vec_mismatch(&y, &case.reference, 1e-9, 1e-9), None, "{} warm-up", case.id);
    }
    let warm = engine.counters();
    assert_eq!(warm.conversions, cases.len() as u64);
    assert_eq!(warm.cached_entries, cases.len());

    // ---- Snapshot while serve threads are hammering the engine ------
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let cases = Arc::clone(&cases);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0usize;
                while !stop.load(Ordering::Relaxed) || served == 0 {
                    let case = &cases[(served * 3 + t) % cases.len()];
                    let mut y = vec![f64::NAN; case.m.rows()];
                    engine.spmv(&case.id, &case.m, &case.x, &mut y);
                    assert_eq!(
                        vec_mismatch(&y, &case.reference, 1e-9, 1e-9),
                        None,
                        "{} under snapshot load",
                        case.id
                    );
                    served += 1;
                }
            })
        })
        .collect();
    let mut blob = Vec::new();
    engine.snapshot(&mut blob).expect("snapshot under load");
    stop.store(true, Ordering::Relaxed);
    for h in hammers {
        h.join().expect("hammer thread");
    }

    // ---- Restore into a fresh engine (no re-training: the selector
    // rides in the snapshot) --------------------------------------
    let selector =
        spmv_suite::engine::selector_from_snapshot(&mut &blob[..]).expect("selector section");
    let fresh = Engine::with_selector(
        EngineConfig {
            device: "AMD-EPYC-24".into(),
            scale: SCALE,
            k: 1,
            cache_capacity_bytes: 64 << 20,
            threads: 3,
            ..EngineConfig::default()
        },
        selector,
    )
    .expect("fresh engine");
    let stats = fresh.restore(&mut &blob[..]).expect("restore");
    assert_eq!(stats.conversions_restored, cases.len(), "every resident conversion lands");
    assert_eq!(stats.conversions_skipped, 0);
    assert!(stats.plans_restored >= cases.len());

    let restored = fresh.counters();
    assert_eq!(restored.requests, 0, "restore is not a serve");
    assert_eq!(restored.conversions, 0, "restore is not a conversion");
    assert_eq!(restored.cache_lookups, 0, "restore moves no lookup counters");
    assert_eq!(restored.cached_entries, warm.cached_entries);
    assert_eq!(restored.bytes_resident, warm.bytes_resident, "byte accounting round-trips");

    // ---- Warm ids: zero conversions, same formats, same results -----
    for case in cases.iter() {
        let mut warm_y = vec![f64::NAN; case.m.rows()];
        let warm_kind = engine.spmv(&case.id, &case.m, &case.x, &mut warm_y);
        let mut y = vec![f64::INFINITY; case.m.rows()];
        let kind = fresh.spmv(&case.id, &case.m, &case.x, &mut y);
        assert_eq!(kind, warm_kind, "{} serves its restored format", case.id);
        assert_eq!(vec_mismatch(&y, &case.reference, 1e-9, 1e-9), None, "{} restored", case.id);
    }
    let c = fresh.counters();
    assert_eq!(c.requests, cases.len() as u64);
    assert_eq!(c.conversions, 0, "warm ids must not convert after restore");
    assert_eq!(c.cache_misses, 0);
    assert_eq!(c.cache_hits, cases.len() as u64, "every request hit its restored entry");
    assert_eq!(c.served_selected, c.requests, "no CSR-path fallbacks on a warm engine");
    assert_eq!(c.served_fallback + c.served_selected, c.requests);
    assert_eq!(c.cache_hits + c.cache_misses + c.coalesced, c.cache_lookups);
    assert_eq!(c.total_selections(), c.requests);
}

/// A symmetric, strictly diagonally dominant (so SPD) band matrix with
/// 41-entry rows: long enough that the W4 and the W8 lane orders of the
/// CSR row kernel round differently.
fn spd_band(n: usize) -> CsrMatrix {
    let mut t = Vec::new();
    for i in 0..n {
        let mut off = 0.0;
        for j in i.saturating_sub(20)..(i + 21).min(n) {
            if i != j {
                let (lo, d) = (i.min(j), i.abs_diff(j));
                let v = ((lo * 7 + d * 3) % 13) as f64 * 0.173 - 1.31;
                off += v.abs();
                t.push((i, j, v));
            }
        }
        t.push((i, i, off + 1.0 + (i % 5) as f64 * 0.219));
    }
    CsrMatrix::from_triplets(n, n, &t).expect("band matrix")
}

/// A restored conversion must run at the engine's resolved lane
/// profile, not at the restoring process's probe: an engine modeling a
/// device whose vector width differs from the host's has to answer the
/// same id with the same bits cold and restored.
#[test]
fn a_restored_conversion_serves_at_the_engines_lane_profile() {
    use spmv_suite::analysis::{FormatSelector, Observation, SelectorFeatures};
    use spmv_suite::formats::{build_format_with, FormatKind, LaneProfile};

    if std::env::var_os("SPMV_LANES").is_some() {
        // The override wins on both sides: every profile is the same.
        return;
    }
    let host = LaneProfile::current();
    let device = spmv_suite::devices::all_devices()
        .into_iter()
        .find(|d| {
            d.formats.contains(&FormatKind::VectorizedCsr) && d.lane_profile().width != host.width
        })
        .expect("Table II has CPUs at W4 and at W8");
    let modeled = device.lane_profile();

    let m = spd_band(120);
    let n = m.rows();
    let x: Vec<f64> = (0..n).map(|i| ((i * 13 + 7) % 29) as f64 * 0.219 - 3.1).collect();
    let at = |profile| {
        build_format_with(FormatKind::VectorizedCsr, &m, profile)
            .expect("CSR builds")
            .spmv_alloc(&x)
    };
    assert_ne!(at(modeled), at(host), "premise: {modeled:?} and {host:?} sum these rows apart");

    // Every matrix is labeled Vectorized-CSR, the kind whose sums
    // follow the lane width; it serves as Balanced-CSR, the same rows.
    let everything = Observation {
        features: SelectorFeatures {
            footprint_mb: 1.0,
            avg_nnz_per_row: 41.0,
            skew: 0.0,
            cross_row_sim: 0.5,
            avg_num_neigh: 1.0,
        },
        best_format: FormatKind::VectorizedCsr.name().into(),
    };
    let engine = || {
        Engine::with_selector(
            EngineConfig {
                device: device.name.into(),
                scale: SCALE,
                cache_capacity_bytes: 64 << 20,
                threads: 3,
                ..EngineConfig::default()
            },
            FormatSelector::fit(std::slice::from_ref(&everything), 1),
        )
        .expect("engine")
    };

    // spmv, a 5-wide spmm (a panel block of 4 and one plain column) and
    // the CG residual after 1..=6 iterations.
    let k = 5;
    let xs: Vec<f64> = (0..n * k).map(|i| ((i * 11 + 3) % 31) as f64 * 0.173 - 2.6).collect();
    let answers = |engine: &Engine| {
        let mut y = vec![f64::NAN; n];
        assert_eq!(engine.spmv("band", &m, &x, &mut y), FormatKind::BalancedCsr);
        let mut ys = vec![f64::NAN; n * k];
        engine.spmm("band", &m, &xs, k, &mut ys);
        let mut solver = engine.solver("band", &m);
        let history: Vec<u64> = (1..=6)
            .map(|iters| solver.cg(&x, 0.0, iters).expect("SPD system").residual.to_bits())
            .collect();
        (y, ys, history)
    };

    let cold = engine();
    assert_eq!(cold.lane_profile(), modeled);
    let want = answers(&cold);
    assert_eq!(want.0, at(modeled), "the cold engine serves at the modeled width");
    let mut blob = Vec::new();
    cold.snapshot(&mut blob).expect("snapshot");

    let restored = engine();
    assert_eq!(restored.restore(&mut &blob[..]).expect("restore").conversions_restored, 1);
    let got = answers(&restored);
    assert_eq!(restored.counters().conversions, 0, "served from the restored conversion");
    assert_eq!(got.0, want.0, "spmv of the restored id");
    assert_eq!(got.1, want.1, "spmm of the restored id");
    assert_eq!(got.2, want.2, "CG residual history of the restored id");
}

/// A snapshot naming a kind outside the serving set — a figure-set kind
/// or a CSR-family label that serves as Balanced-CSR, in a plan record
/// or a conversion envelope — was not written by this engine (it never
/// builds one), so restore refuses it whole with a typed error naming
/// the kind, and the id it named converts a serving kind on its next
/// request.
#[test]
fn a_snapshot_naming_a_figure_kind_is_refused_whole() {
    use spmv_suite::analysis::{FormatSelector, Observation, SelectorFeatures};
    use spmv_suite::core::xxh64;
    use spmv_suite::engine::SnapshotError;
    use spmv_suite::formats::wire::{tag_of, SectionWriter, FORMAT_MAGIC};
    use spmv_suite::formats::FormatKind;

    let sell = Observation {
        features: SelectorFeatures {
            footprint_mb: 1.0,
            avg_nnz_per_row: 8.0,
            skew: 0.0,
            cross_row_sim: 0.5,
            avg_num_neigh: 0.5,
        },
        best_format: FormatKind::SellCSigma.name().into(),
    };
    let engine = Engine::with_selector(
        EngineConfig {
            device: "AMD-EPYC-24".into(),
            scale: SCALE,
            threads: 2,
            ..Default::default()
        },
        FormatSelector::fit(&[sell], 1),
    )
    .expect("engine");
    let m = spd_band(90);
    let x: Vec<f64> = (0..m.cols()).map(|i| ((i * 7 + 2) % 17) as f64 * 0.31 - 2.0).collect();
    let reference = DenseMatrix::from_csr(&m).spmv(&x);
    let mut y = vec![f64::NAN; m.rows()];
    engine.spmv("warm", &m, &x, &mut y);

    // wire.rs's envelope: magic, tag, u64 payload length, payload (the
    // CSR sections SparseX and Merge-CSR used to carry), xxh64 of all
    // of it.
    assert_eq!(tag_of(FormatKind::SparseX), 11, "retired tags keep their numbers");
    assert_eq!(tag_of(FormatKind::MergeCsr), 10, "retired tags keep their numbers");
    let mut payload = SectionWriter::new();
    payload.usize(m.rows());
    payload.usize(m.cols());
    payload.slice_usize(m.row_ptr());
    payload.slice_u32(m.col_idx());
    payload.slice_f64(m.values());
    let payload = payload.into_bytes();
    let envelope = |tag: u8| {
        let mut envelope = FORMAT_MAGIC.to_vec();
        envelope.push(tag);
        envelope.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        envelope.extend_from_slice(&payload);
        let digest = xxh64(&envelope, 0);
        envelope.extend_from_slice(&digest.to_le_bytes());
        envelope
    };

    // The snapshot stream around it (snapshot.rs's module docs), with
    // or without a DIA plan record for the same id.
    let selector = engine.selector().to_portable();
    let snapshot = |dia_plan: bool, tag: u8| {
        let string = |buf: &mut Vec<u8>, s: &[u8]| {
            buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
            buf.extend_from_slice(s);
        };
        let mut buf = b"SPMVSNP1".to_vec();
        string(&mut buf, selector.as_bytes());
        buf.extend_from_slice(&u64::from(dia_plan).to_le_bytes());
        if dia_plan {
            string(&mut buf, b"x");
            buf.push(tag_of(FormatKind::Dia));
        }
        buf.extend_from_slice(&1u64.to_le_bytes());
        string(&mut buf, b"x");
        buf.extend_from_slice(&envelope(tag));
        let sum = xxh64(&buf, 0);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    };

    let counters = engine.counters();
    let mut state = Vec::new();
    engine.snapshot(&mut state).expect("snapshot");
    for (dia_plan, tag, kind) in [
        (true, 11, FormatKind::Dia),
        (false, 11, FormatKind::SparseX),
        (false, 10, FormatKind::MergeCsr),
    ] {
        let err = engine.restore(&mut &snapshot(dia_plan, tag)[..]).unwrap_err();
        assert_eq!(err, SnapshotError::NotServed(kind));
        assert!(err.to_string().contains(kind.name()), "{err}");
    }
    // Every field exact but `pool`: the idle workers park on their own
    // schedule, so `pool.parks` moves between any two reads.
    let now = EngineCounters { pool: counters.pool, ..engine.counters() };
    assert_eq!(now, counters, "a refused restore moves no counter");
    let mut after = Vec::new();
    engine.snapshot(&mut after).expect("snapshot");
    assert_eq!(after, state, "a refused restore lands no plan and no conversion");

    let mut y = vec![f64::NAN; m.rows()];
    let kind = engine.spmv("x", &m, &x, &mut y);
    assert!(FormatKind::SERVING.contains(&kind), "{kind:?}");
    assert_eq!(vec_mismatch(&y, &reference, 1e-9, 1e-9), None);
    assert_eq!(engine.counters().conversions, counters.conversions + 1, "x converted");
}
