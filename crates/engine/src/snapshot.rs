//! Persistent engine state: versioned, checksummed snapshots of the
//! fitted selector, the plan table and the resident conversions.
//!
//! A long-lived serving process accumulates state that is expensive to
//! recompute — the trained selector, one plan per admitted matrix id,
//! and the converted formats themselves (SELL-C-σ costs many
//! SpMV-equivalents to build). [`Engine::snapshot`] dumps all three to
//! one self-contained stream; [`Engine::restore`] (or the
//! [`EngineConfig::warm_start`](crate::EngineConfig::warm_start) knob)
//! reloads them so a restarted engine serves its selected formats from
//! the first request instead of re-converting its whole working set.
//!
//! # Stream layout
//!
//! All integers are little-endian, fixed width; strings are
//! length-prefixed UTF-8.
//!
//! ```text
//! magic      8 B   b"SPMVSNP1" (version bumps change the last byte)
//! selector   u64 byte length + portable selector text
//!            (FormatSelector::to_portable — reused verbatim)
//! plans      u64 count, then per plan:
//!              u64 id length + id bytes + u8 format wire tag
//! conversions u64 count, then per entry:
//!              u64 id length + id bytes
//!              + one self-delimiting format envelope
//!                (spmv_formats::wire — own magic, tag, checksum)
//! checksum   u64 XXH64 (seed 0) over every preceding byte
//! ```
//!
//! # Restore semantics
//!
//! Restore is **validate fully, then land**: the whole stream is
//! checksummed and parsed — every embedded format decoded and
//! structurally re-validated, duplicate records rejected, and any plan
//! or conversion of a kind the engine does not serve (outside
//! [`FormatKind::SERVING`]) refused as [`SnapshotError::NotServed`] —
//! before the engine is touched, so a corrupt snapshot leaves a live
//! engine unchanged. Landing then goes through the *same* admission machinery
//! a background conversion flight uses ([`PlanTable::try_begin_build`]
//! epoch tickets, [`ShardedConversions::land`] publication), which is
//! what makes restore safe to run concurrently with live serves:
//!
//! * a plan already present wins over the snapshot's (first writer
//!   wins, exactly like racing admissions), and a plan a live
//!   admission flight owns is skipped;
//! * an id whose conversion is already resident keeps it, and an id a
//!   live leader is converting is waited for — restore never publishes
//!   over a live flight; either way the record counts as skipped;
//! * a `forget` racing the restore vetoes the publication through the
//!   usual epoch check, so restore cannot resurrect a forgotten id;
//! * restored conversions land through the shard caches' normal
//!   insert/evict path, so the configured byte budget holds (restore
//!   evicts, never overshoots).
//!
//! Restore moves **no** instrumentation counters: it is neither a
//! serve nor a conversion, and the counter-reconciliation invariants
//! documented on [`EngineCounters`](crate::EngineCounters) keep holding
//! across a snapshot/restore cycle.
//!
//! [`PlanTable::try_begin_build`]: crate::shard::PlanTable::try_begin_build
//! [`ShardedConversions::land`]: crate::shard::ShardedConversions::land

use crate::shard::{CachedFormat, Landed};
use crate::Engine;
use spmv_analysis::FormatSelector;
use spmv_core::xxh64;
use spmv_formats::wire::{self, SectionReader};
use spmv_formats::{FormatKind, LaneProfile, WireError};
use std::io::{Read, Write};
use std::sync::Arc;

/// Magic prefix of an engine snapshot stream.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SPMVSNP1";

/// Errors raised while writing or restoring an engine snapshot.
///
/// String payloads (rather than source errors) keep the type `Clone +
/// PartialEq + Eq` so it composes with
/// [`EngineError`](crate::EngineError).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The underlying reader or writer failed.
    Io(String),
    /// The stream does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The stored checksum does not match the stream contents.
    ChecksumMismatch {
        /// Checksum stored in the stream's trailer.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// The stream ended before its declared content.
    Truncated,
    /// Structurally invalid content (unknown tag, bad UTF-8, an
    /// embedded format that fails re-validation, trailing bytes, …).
    Malformed(String),
    /// Two plan records named the same matrix id.
    DuplicatePlan(String),
    /// Two conversion records named the same `(id, format)` key.
    DuplicateConversion(String, FormatKind),
    /// A plan or conversion record names a kind outside
    /// [`FormatKind::SERVING`] — one the engine never builds, so a
    /// stream carrying it was not written by this engine. The id's
    /// next request plans and converts a serving kind.
    NotServed(FormatKind),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
            SnapshotError::BadMagic => write!(f, "not an engine snapshot (bad magic)"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::DuplicatePlan(id) => {
                write!(f, "malformed snapshot: duplicate plan record for id {id:?}")
            }
            SnapshotError::DuplicateConversion(id, kind) => write!(
                f,
                "malformed snapshot: duplicate conversion record for ({id:?}, {})",
                kind.name()
            ),
            SnapshotError::NotServed(kind) => {
                write!(f, "snapshot names {}, which the engine does not serve", kind.name())
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => SnapshotError::Io(io.to_string()),
            WireError::Truncated { .. } => SnapshotError::Truncated,
            WireError::NotServed(kind) => SnapshotError::NotServed(kind),
            // An embedded envelope's own bad magic/tag/checksum inside
            // an outer-checksummed stream is corruption of the stream
            // structure, not of the transport.
            other => SnapshotError::Malformed(other.to_string()),
        }
    }
}

/// What [`Engine::restore`] landed, and what it deliberately skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Plan records applied (first-writer-wins: a record whose id was
    /// already planned re-used the live plan, but still counts — the id
    /// is planned either way).
    pub plans_restored: usize,
    /// Conversions landed into the cache by this restore.
    pub conversions_restored: usize,
    /// Conversion records skipped because live state won the race: the
    /// id's conversion was already resident or being built (restore
    /// waits for that flight), a live admission flight owned the plan,
    /// or a concurrent `forget` vetoed the publication.
    pub conversions_skipped: usize,
}

/// Everything a snapshot stream contains, fully decoded and validated.
struct Parsed {
    selector: String,
    plans: Vec<(String, FormatKind)>,
    conversions: Vec<(String, FormatKind, CachedFormat)>,
}

fn read_string(r: &mut SectionReader<'_>) -> Result<String, SnapshotError> {
    let raw = r.bytes()?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|e| SnapshotError::Malformed(format!("invalid UTF-8 in string: {e}")))
}

/// Checksum-verifies and fully decodes a snapshot stream; the decoded
/// formats run at `lanes`. No engine state is involved: corruption is
/// detected before any landing starts.
fn parse(buf: &[u8], lanes: LaneProfile) -> Result<Parsed, SnapshotError> {
    if buf.len() < SNAPSHOT_MAGIC.len() + 8 {
        return Err(SnapshotError::Truncated);
    }
    let (body, trailer) = buf.split_at(buf.len() - 8);
    if body[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = xxh64(body, 0);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut r = SectionReader::new(&body[SNAPSHOT_MAGIC.len()..]);

    let selector = read_string(&mut r)?;
    FormatSelector::from_portable(&selector)
        .map_err(|e| SnapshotError::Malformed(format!("selector section: {e}")))?;

    // Counts are attacker-controlled: never preallocate from them —
    // a hostile count runs into `Truncated` on its first record.
    let n_plans = r.u64()?;
    let mut plans = Vec::new();
    let mut seen_plans = std::collections::BTreeSet::new();
    for _ in 0..n_plans {
        let id = read_string(&mut r)?;
        let tag = r.u8()?;
        let kind = wire::kind_of(tag)
            .ok_or_else(|| SnapshotError::Malformed(format!("unknown plan format tag {tag}")))?;
        if !FormatKind::SERVING.contains(&kind) {
            return Err(SnapshotError::NotServed(kind));
        }
        if !seen_plans.insert(id.clone()) {
            return Err(SnapshotError::DuplicatePlan(id));
        }
        plans.push((id, kind));
    }

    let n_conversions = r.u64()?;
    let mut conversions = Vec::new();
    let mut seen_conversions = std::collections::BTreeSet::new();
    for _ in 0..n_conversions {
        let id = read_string(&mut r)?;
        // The envelope is self-delimiting (SectionReader implements
        // io::Read), and decoding re-runs the full structural
        // validation each format's wire decoder performs; a figure-set
        // tag decodes to `NotServed`.
        let fmt = wire::deserialize_from_with(&mut r, lanes)?;
        let kind = FormatKind::from_name(fmt.name()).ok_or_else(|| {
            SnapshotError::Malformed(format!("format {:?} has no wire kind", fmt.name()))
        })?;
        if !seen_conversions.insert((id.clone(), kind)) {
            return Err(SnapshotError::DuplicateConversion(id, kind));
        }
        conversions.push((id, kind, Arc::new(fmt)));
    }
    r.finish().map_err(|e| SnapshotError::Malformed(e.to_string()))?;
    Ok(Parsed { selector, plans, conversions })
}

/// Reads just the selector model out of a snapshot stream (the whole
/// stream is still checksum-verified and decoded). This is how a
/// restarted process rebuilds an [`Engine`] without re-running the
/// training campaign: `selector_from_snapshot` +
/// [`Engine::with_selector`] + [`Engine::restore`] — or, in one step,
/// [`EngineConfig::warm_start`](crate::EngineConfig::warm_start).
pub fn selector_from_snapshot(r: &mut dyn Read) -> Result<FormatSelector, SnapshotError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    // The conversions are decoded only to validate them.
    let parsed = parse(&buf, LaneProfile::scalar())?;
    Ok(FormatSelector::from_portable(&parsed.selector).expect("validated by parse"))
}

impl Engine {
    /// Writes a snapshot of the engine's warm state — fitted selector,
    /// plan table, resident conversions — to `w` (see the [module
    /// docs](self) for the layout). Safe under concurrent serves: each
    /// state shard is locked briefly for export, recency untouched; the
    /// snapshot is one consistent cut per shard, not across shards
    /// (exactly the guarantee [`Engine::counters`] gives).
    pub fn snapshot(&self, w: &mut dyn Write) -> Result<(), SnapshotError> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        let selector = self.state.selector.to_portable();
        buf.extend_from_slice(&(selector.len() as u64).to_le_bytes());
        buf.extend_from_slice(selector.as_bytes());

        let plans = self.state.plans.export();
        buf.extend_from_slice(&(plans.len() as u64).to_le_bytes());
        for (id, kind) in &plans {
            buf.extend_from_slice(&(id.len() as u64).to_le_bytes());
            buf.extend_from_slice(id.as_bytes());
            buf.push(wire::tag_of(*kind));
        }

        let conversions = self.state.conversions.export();
        buf.extend_from_slice(&(conversions.len() as u64).to_le_bytes());
        for (id, _kind, fmt) in &conversions {
            buf.extend_from_slice(&(id.len() as u64).to_le_bytes());
            buf.extend_from_slice(id.as_bytes());
            // The envelope's wire tag is the entry's cache kind: the
            // cache keys every entry under the kind that actually
            // built, which is the kind the format names itself as.
            fmt.serialize_into(&mut buf)?;
        }

        let sum = xxh64(&buf, 0);
        buf.extend_from_slice(&sum.to_le_bytes());
        w.write_all(&buf)?;
        Ok(())
    }

    /// Restores a snapshot into this engine: plans first (first writer
    /// wins against live admissions), then each conversion, landed
    /// through the regular flight machinery so a restore racing live
    /// serves can never double-publish a key or resurrect a forgotten
    /// id (see the [module docs](self)). The stream is fully validated
    /// before anything lands — on error the engine is unchanged.
    ///
    /// The snapshot's selector section is validated but not applied:
    /// the selector an engine votes with is fixed at construction
    /// (use [`selector_from_snapshot`] + [`Engine::with_selector`] to
    /// carry it across a restart).
    pub fn restore(&self, r: &mut dyn Read) -> Result<RestoreStats, SnapshotError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        // Restored conversions run at the engine's resolved profile,
        // like the ones it builds.
        let parsed = parse(&buf, self.state.lanes)?;
        let mut stats = RestoreStats::default();

        for (id, kind) in &parsed.plans {
            self.state.plans.insert_pending(id, *kind);
            stats.plans_restored += 1;
        }

        for (id, kind, fmt) in parsed.conversions {
            // Claim the plan's build exactly like a scheduled admission
            // flight would: the epoch ticket is what lets a concurrent
            // `forget` (or forget + re-admission) veto this landing.
            self.state.plans.insert_pending(&id, kind);
            let Some((_, epoch)) = self.state.plans.try_begin_build(&id) else {
                // A live flight owns this plan; its conversion is
                // fresher than the snapshot's. Skip, never contend.
                stats.conversions_skipped += 1;
                continue;
            };
            // A resident conversion, or a live leader's (waited for), wins
            // over the snapshot's; else the "build" is the decoded format.
            let st = &self.state;
            let (_, _, landed) =
                st.conversions.land(&st.plans, &id, || kind, Some(epoch), |_| (fmt, kind, 0));
            if matches!(landed, Landed::Built { published: true, .. }) {
                stats.conversions_restored += 1;
            } else {
                stats.conversions_skipped += 1;
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Admission, Engine, EngineConfig, TrainingPlan};
    use spmv_core::CsrMatrix;
    use spmv_gen::dataset::DatasetSize;

    fn quick_config() -> EngineConfig {
        EngineConfig {
            device: "AMD-EPYC-24".into(),
            scale: 512.0,
            k: 1,
            cache_capacity_bytes: 64 << 20,
            threads: 2,
            training: TrainingPlan { size: DatasetSize::Small, stride: 60, base_seed: 11 },
            ..EngineConfig::default()
        }
    }

    fn skewed_matrix(seed: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for r in 0..600usize {
            t.push((r, (r * 7 + seed) % 600, 1.0));
            t.push((r, (r * 131 + 5 + seed) % 600, 0.5));
        }
        for c in 0..400usize {
            t.push((0, (c + seed) % 600, 0.25));
        }
        CsrMatrix::from_triplets(600, 600, &t).unwrap()
    }

    #[test]
    fn snapshot_restores_into_a_fresh_engine_with_zero_conversions() {
        let engine = Engine::new(quick_config()).unwrap();
        let matrices: Vec<(String, CsrMatrix)> =
            (0..4).map(|i| (format!("m{i}"), skewed_matrix(i * 37))).collect();
        let x: Vec<f64> = (0..600).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut y = vec![0.0; 600];
        for (id, m) in &matrices {
            engine.spmv(id, m, &x, &mut y);
        }
        let warm = engine.counters();
        assert_eq!(warm.conversions, 4);

        let mut blob = Vec::new();
        engine.snapshot(&mut blob).unwrap();

        // Rebuild without re-training: selector straight from the blob.
        let selector = selector_from_snapshot(&mut &blob[..]).unwrap();
        let fresh = Engine::with_selector(quick_config(), selector).unwrap();
        let stats = fresh.restore(&mut &blob[..]).unwrap();
        assert_eq!(stats.plans_restored, 4);
        assert_eq!(stats.conversions_restored, 4);
        assert_eq!(stats.conversions_skipped, 0);

        // Warm ids serve their pinned formats without converting.
        let mut y2 = vec![f64::NAN; 600];
        for (id, m) in &matrices {
            let mut want = vec![0.0; 600];
            let warm_kind = engine.spmv(id, m, &x, &mut want);
            let kind = fresh.spmv(id, m, &x, &mut y2);
            assert_eq!(spmv_core::vec_mismatch(&y2, &want, 1e-12, 1e-12), None);
            assert_eq!(kind, warm_kind, "restored engine serves the same pinned format");
        }
        let c = fresh.counters();
        assert_eq!(c.conversions, 0, "restore pre-landed every conversion");
        assert_eq!(c.cache_hits, 4);
        assert_eq!(c.cached_entries, warm.cached_entries);
        assert_eq!(c.bytes_resident, warm.bytes_resident, "byte accounting round-trips");
    }

    #[test]
    fn restore_is_idempotent_and_respects_live_state() {
        let engine = Engine::new(quick_config()).unwrap();
        let m = skewed_matrix(0);
        let x = vec![1.0; 600];
        let mut y = vec![0.0; 600];
        engine.spmv("m", &m, &x, &mut y);
        let mut blob = Vec::new();
        engine.snapshot(&mut blob).unwrap();

        // Restoring into the engine it came from: everything resident.
        let stats = engine.restore(&mut &blob[..]).unwrap();
        assert_eq!(stats.conversions_restored, 0);
        assert_eq!(stats.conversions_skipped, 1);
        assert_eq!(engine.counters().cached_entries, 1, "no duplicate entries");
    }

    #[test]
    fn corrupt_snapshots_error_without_touching_the_engine() {
        let engine = Engine::new(quick_config()).unwrap();
        let m = skewed_matrix(5);
        let x = vec![1.0; 600];
        let mut y = vec![0.0; 600];
        engine.spmv("m", &m, &x, &mut y);
        let mut blob = Vec::new();
        engine.snapshot(&mut blob).unwrap();

        let fresh = Engine::with_selector(quick_config(), engine.selector().clone()).unwrap();
        // Truncations at every structural boundary.
        for cut in [0, 4, 8, 20, blob.len() / 2, blob.len() - 1] {
            let err = fresh.restore(&mut &blob[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::ChecksumMismatch { .. })
                    || matches!(err, SnapshotError::Malformed(_)),
                "cut {cut}: {err}"
            );
        }
        // Bad magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert_eq!(fresh.restore(&mut &bad[..]).unwrap_err(), SnapshotError::BadMagic);
        // Any flipped body byte trips the checksum.
        for pos in [8, 9, blob.len() / 2, blob.len() - 9] {
            let mut bad = blob.clone();
            bad[pos] ^= 0x01;
            assert!(
                matches!(
                    fresh.restore(&mut &bad[..]).unwrap_err(),
                    SnapshotError::ChecksumMismatch { .. }
                ),
                "flip at {pos}"
            );
        }
        let c = fresh.counters();
        assert_eq!(c.cached_entries, 0, "failed restores landed nothing");
        assert_eq!(c.planned_entries, 0);
    }

    #[test]
    fn duplicate_records_are_typed_errors() {
        let engine = Engine::new(quick_config()).unwrap();
        let m = skewed_matrix(9);
        let x = vec![1.0; 600];
        let mut y = vec![0.0; 600];
        engine.spmv("dup", &m, &x, &mut y);

        // Re-snapshot with the plan and conversion sections doubled by
        // splicing: parse the genuine blob's sections apart, then write
        // a new stream that repeats each record, re-checksummed (so
        // only the duplicate check can reject it).
        let mut blob = Vec::new();
        engine.snapshot(&mut blob).unwrap();
        let body = &blob[..blob.len() - 8];
        let sel_len = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
        let after_sel = 16 + sel_len;
        let n_plans = u64::from_le_bytes(body[after_sel..after_sel + 8].try_into().unwrap());
        assert_eq!(n_plans, 1);
        let plan_rec_start = after_sel + 8;
        let id_len =
            u64::from_le_bytes(body[plan_rec_start..plan_rec_start + 8].try_into().unwrap())
                as usize;
        let plan_rec_end = plan_rec_start + 8 + id_len + 1;
        let plan_rec = &body[plan_rec_start..plan_rec_end];

        let mut dup = Vec::new();
        dup.extend_from_slice(&body[..after_sel]);
        dup.extend_from_slice(&2u64.to_le_bytes());
        dup.extend_from_slice(plan_rec);
        dup.extend_from_slice(plan_rec);
        dup.extend_from_slice(&body[plan_rec_end..]);
        let sum = spmv_core::xxh64(&dup, 0);
        dup.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            engine.restore(&mut &dup[..]).unwrap_err(),
            SnapshotError::DuplicatePlan("dup".into())
        );

        // Same splice on the conversion section.
        let conv_count_at = plan_rec_end;
        let n_conv = u64::from_le_bytes(body[conv_count_at..conv_count_at + 8].try_into().unwrap());
        assert_eq!(n_conv, 1);
        let conv_rec = &body[conv_count_at + 8..];
        let mut dup = Vec::new();
        dup.extend_from_slice(&body[..conv_count_at]);
        dup.extend_from_slice(&2u64.to_le_bytes());
        dup.extend_from_slice(conv_rec);
        dup.extend_from_slice(conv_rec);
        let sum = spmv_core::xxh64(&dup, 0);
        dup.extend_from_slice(&sum.to_le_bytes());
        match engine.restore(&mut &dup[..]).unwrap_err() {
            SnapshotError::DuplicateConversion(id, _) => assert_eq!(id, "dup"),
            other => panic!("expected DuplicateConversion, got {other}"),
        }
    }

    #[test]
    fn restore_respects_the_cache_byte_budget() {
        // Snapshot from a roomy engine, restore into a tiny one: the
        // LRU must evict down to budget, not overshoot.
        let engine = Engine::new(quick_config()).unwrap();
        let x = vec![1.0; 600];
        let mut y = vec![0.0; 600];
        let matrices: Vec<(String, CsrMatrix)> =
            (0..6).map(|i| (format!("b{i}"), skewed_matrix(i * 101))).collect();
        for (id, m) in &matrices {
            engine.spmv(id, m, &x, &mut y);
        }
        let full_bytes = engine.counters().bytes_resident;
        assert!(full_bytes > 0);
        let mut blob = Vec::new();
        engine.snapshot(&mut blob).unwrap();

        // Budget for roughly half the working set, single shard so the
        // bound is global.
        let cfg =
            EngineConfig { cache_capacity_bytes: full_bytes / 2, shards: 1, ..quick_config() };
        let tiny = Engine::with_selector(cfg, engine.selector().clone()).unwrap();
        let stats = tiny.restore(&mut &blob[..]).unwrap();
        assert_eq!(stats.conversions_restored + stats.conversions_skipped, 6);
        let c = tiny.counters();
        assert!(
            c.bytes_resident <= full_bytes / 2 || c.cached_entries == 1,
            "budget overshoot: {} resident over {} budget in {} entries",
            c.bytes_resident,
            full_bytes / 2,
            c.cached_entries
        );
        assert!(c.cached_entries < 6, "something must have been evicted");
    }

    #[test]
    fn warm_start_config_loads_a_snapshot_and_ignores_a_missing_file() {
        let dir = std::env::temp_dir().join(format!("spmv-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");

        let engine = Engine::new(quick_config()).unwrap();
        let m = skewed_matrix(3);
        let x = vec![1.0; 600];
        let mut y = vec![0.0; 600];
        engine.spmv("w", &m, &x, &mut y);
        let mut f = std::fs::File::create(&path).unwrap();
        engine.snapshot(&mut f).unwrap();
        drop(f);

        let cfg = EngineConfig { warm_start: Some(path.clone()), ..quick_config() };
        let warm = Engine::with_selector(cfg, engine.selector().clone()).unwrap();
        assert_eq!(warm.counters().cached_entries, 1, "warm start pre-landed the conversion");
        let mut y2 = vec![f64::NAN; 600];
        warm.spmv("w", &m, &x, &mut y2);
        assert_eq!(warm.counters().conversions, 0);

        // Missing file: silent cold start (first boot has no snapshot).
        let cfg =
            EngineConfig { warm_start: Some(dir.join("does-not-exist.snap")), ..quick_config() };
        let cold = Engine::with_selector(cfg, engine.selector().clone()).unwrap();
        assert_eq!(cold.counters().cached_entries, 0);

        // Corrupt file: a typed construction error, not a silent cold
        // start serving stale-free but unexpectedly slow.
        std::fs::write(&path, b"SPMVSNP1 but then garbage").unwrap();
        let cfg = EngineConfig { warm_start: Some(path.clone()), ..quick_config() };
        assert!(Engine::with_selector(cfg, engine.selector().clone()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Restore under `Async` admission composes with the flight
    /// machinery end to end: warm ids never schedule a flight.
    #[test]
    fn warm_ids_schedule_no_flights_under_async_admission() {
        let engine = Engine::new(quick_config()).unwrap();
        let m = skewed_matrix(1);
        let x = vec![1.0; 600];
        let mut y = vec![0.0; 600];
        engine.spmv("a", &m, &x, &mut y);
        let mut blob = Vec::new();
        engine.snapshot(&mut blob).unwrap();

        let cfg =
            EngineConfig { admission: Admission::Async { max_in_flight: 4 }, ..quick_config() };
        let fresh = Engine::with_selector(cfg, engine.selector().clone()).unwrap();
        fresh.restore(&mut &blob[..]).unwrap();
        for _ in 0..3 {
            let mut y2 = vec![f64::NAN; 600];
            fresh.spmv("a", &m, &x, &mut y2);
        }
        fresh.drain_admissions();
        let c = fresh.counters();
        assert_eq!(c.flights_scheduled, 0, "restored id must not re-admit");
        assert_eq!(c.conversions, 0);
        assert_eq!(c.served_selected, 3, "every request served the restored format");
    }
}
