//! Per-shard write-ahead durability: the compaction and recovery
//! protocols behind [`crate::TuneService::enable_durability`].
//!
//! On-disk layout under the durability directory, per `(device, op)`
//! shard:
//!
//! * `shard-<dev>-<op>.cache` -- the **base**: the shard's full
//!   decision set in the v2 cache format, rewritten only by compaction
//!   (via temp-file + atomic rename, `write_base`).
//! * `shard-<dev>-<op>.wal` -- the **delta log**: one CRC32-framed
//!   record per cache mutation since the base was written, appended by
//!   the [`isaac_core::WalWriter`] journal attached to the shard's
//!   cache. An interval that published three decisions appends three
//!   short lines instead of rewriting the whole file.
//!
//! Recovered state is `base`, then the log replayed in order with
//! put/delete semantics ([`isaac_core::TuneCache::apply`]). The
//! protocols below are written so that a crash at *any* instant leaves
//! those two files recoverable; the invariants are spelled out in
//! `docs/DURABILITY.md` and exercised point-by-point by the chaos
//! suite (`crates/serve/tests/chaos.rs`).
//!
//! This is the one on-disk format: [`crate::TuneService::snapshot_all`]
//! exports base files through the same `write_base`, and a directory
//! of base files without logs is what `recover_shard` reads for
//! [`crate::TuneService::restore_all`].

use crate::service::snapshot_file_name;
use isaac_core::durability::{decode_wal, DurabilityIo, WalWriter};
use isaac_core::{IsaacTuner, OpKind};
use std::io;
use std::path::Path;

/// WAL file name for one `(device, op)` shard: `shard-<device>-<op>.wal`.
pub fn wal_file_name(device: u16, op: OpKind) -> String {
    format!("shard-{device}-{op}.wal")
}

/// Inverse of [`wal_file_name`]; `None` for foreign files.
pub fn parse_wal_file_name(name: &str) -> Option<(u16, OpKind)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".wal")?;
    let (device, op) = rest.split_once('-')?;
    let device = device.parse().ok()?;
    Some((device, OpKind::parse(op)?))
}

/// Per-shard outcome of [`recover_shard`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardRecovery {
    /// Whether a base cache file was found.
    pub base: bool,
    /// Entries merged from the base cache file.
    pub loaded: usize,
    /// WAL records replayed on top of the base.
    pub replayed: usize,
    /// Torn / corrupt trailing WAL records truncated away.
    pub torn_records: usize,
    /// Malformed or wrong-operation entries skipped (base lines plus
    /// replayed records).
    pub skipped: usize,
}

/// Write one shard's base file under `dir`: its full decision set in
/// the v2 cache format, written to a temp file and atomically renamed
/// over `shard-<dev>-<op>.cache`, so a crash mid-write leaves the old
/// base intact. Returns the number of entries written. The dirty bit is
/// the caller's business: compaction clears it, an export leaves it.
pub(crate) fn write_base(
    io: &dyn DurabilityIo,
    dir: &Path,
    device: u16,
    op: OpKind,
    tuner: &IsaacTuner,
) -> io::Result<usize> {
    let base = dir.join(snapshot_file_name(device, op));
    let tmp = dir.join(format!("{}.tmp", snapshot_file_name(device, op)));
    let text = tuner.cache_text();
    io.crash_point("compact.write")?;
    io.write_file(&tmp, text.as_bytes())?;
    io.crash_point("compact.rename")?;
    io.rename(&tmp, &base)?;
    Ok(text.lines().count().saturating_sub(1))
}

/// Compact one shard: persist its full decision set as the new base
/// file and shrink the WAL to whatever was appended after the state
/// read. Returns the number of entries persisted.
///
/// Crash safety, step by step:
///
/// 1. The WAL length is sampled under the append lock (`pre_len`): every
///    record at or below it is about to be covered by the new base.
/// 2. The base is rewritten by [`write_base`] -- a crash mid-write
///    leaves the *old* base plus the intact log, which replays to the
///    exact pre-crash state.
/// 3. The WAL keeps only the bytes past `pre_len` (records that raced
///    in during the write), again via temp + rename under the append
///    lock. A crash before this step leaves the new base plus the full
///    old log -- harmless, because replay is idempotent put/delete
///    (see [`isaac_core::TuneCache::apply`]): every key ends at its
///    last-record state, which the new base already has.
///
/// Compaction is the only place the dirty bit is cleared: before the
/// state read, so a decision published during the write re-dirties the
/// shard, and restored on any I/O error so the shard is retried next
/// interval.
pub(crate) fn compact_shard(
    io: &dyn DurabilityIo,
    dir: &Path,
    device: u16,
    op: OpKind,
    tuner: &IsaacTuner,
    writer: &WalWriter,
) -> io::Result<usize> {
    let wal = dir.join(wal_file_name(device, op));
    let wal_tmp = dir.join(format!("{}.tmp", wal_file_name(device, op)));
    let result = (|| {
        let pre_len = writer.with_appends_excluded(|| io.file_len(&wal).unwrap_or(0));
        tuner.cache().mark_clean();
        let entries = write_base(io, dir, device, op, tuner)?;
        io.crash_point("compact.pre_truncate")?;
        writer.with_appends_excluded(|| -> io::Result<()> {
            let post_len = io.file_len(&wal).unwrap_or(0);
            if post_len > pre_len {
                // Records landed while the base was being written: keep
                // exactly that tail. Temp + rename so a crash mid-write
                // cannot leave a partially-rewritten log (the old full
                // log also replays to the right state; a *prefix of the
                // tail* would not).
                let bytes = io.read(&wal)?;
                io.write_file(&wal_tmp, &bytes[pre_len as usize..])?;
                io.rename(&wal_tmp, &wal)?;
            } else if post_len > 0 {
                io.truncate(&wal, 0)?;
            }
            Ok(())
        })?;
        Ok(entries)
    })();
    if result.is_err() {
        // The bit was cleared optimistically; the state is not durably
        // persisted, so put it back for the next interval's retry.
        tuner.cache().mark_dirty();
    }
    result
}

/// Recover one shard from its base file and WAL: merge the base (if
/// present), truncate the WAL at the first torn or corrupt record
/// (counting what was dropped), and replay the surviving records in
/// order with put/delete semantics. The shard's journal must not be
/// attached yet -- replay must not re-append the log it is reading.
pub(crate) fn recover_shard(
    io: &dyn DurabilityIo,
    dir: &Path,
    device: u16,
    op: OpKind,
    tuner: &IsaacTuner,
) -> io::Result<ShardRecovery> {
    let mut recovery = ShardRecovery::default();
    let base = dir.join(snapshot_file_name(device, op));
    if io.file_len(&base).is_ok() {
        recovery.base = true;
        let text = String::from_utf8_lossy(&io.read(&base)?).into_owned();
        let report = tuner.load_cache_text(&text)?;
        recovery.loaded = report.loaded;
        recovery.skipped = report.skipped;
    }
    let wal = dir.join(wal_file_name(device, op));
    let Ok(wal_len) = io.file_len(&wal) else {
        return Ok(recovery);
    };
    let bytes = io.read(&wal)?;
    let decode = decode_wal(&bytes, device);
    recovery.torn_records = decode.torn_records;
    // CRC-valid records from a future format version: skipped, not
    // treated as corruption (see `WalDecode::skipped`).
    recovery.skipped += decode.skipped;
    if (decode.valid_len as u64) < wal_len {
        // Torn-write contract: drop the untrusted tail *on disk* too,
        // so appends resumed after recovery extend a clean log instead
        // of burying garbage mid-file.
        io.truncate(&wal, decode.valid_len as u64)?;
    }
    for record in &decode.records {
        if record.key().op != op {
            recovery.skipped += 1;
            continue;
        }
        tuner.cache().apply(record);
        recovery.replayed += 1;
    }
    Ok(recovery)
}

/// Delete persistence files under `dir` whose `(device, op)` is not in
/// `keep` -- plus any `.tmp` leftovers from a crashed compaction.
/// Returns how many files were removed; individual deletion failures
/// are skipped (the next sweep retries them).
pub(crate) fn gc_orphans(
    io: &dyn DurabilityIo,
    dir: &Path,
    keep: impl Fn(u16, OpKind) -> bool,
) -> usize {
    let Ok(names) = io.read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for name in names {
        let stale = if let Some(stem) = name.strip_suffix(".tmp") {
            // A temp file is only ever live inside a compaction call;
            // anything surviving to a sweep is a crash leftover.
            crate::service::parse_snapshot_file_name(stem).is_some()
                || parse_wal_file_name(stem).is_some()
        } else if let Some((device, op)) = crate::service::parse_snapshot_file_name(&name) {
            !keep(device, op)
        } else if let Some((device, op)) = parse_wal_file_name(&name) {
            !keep(device, op)
        } else {
            false
        };
        if stale && io.remove_file(&dir.join(&name)).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_file_names_roundtrip() {
        for (device, op) in [(0, OpKind::Gemm), (9, OpKind::Conv), (65535, OpKind::Gemm)] {
            let name = wal_file_name(device, op);
            assert_eq!(parse_wal_file_name(&name), Some((device, op)));
        }
        assert_eq!(parse_wal_file_name("shard-1-gemm.cache"), None);
        assert_eq!(parse_wal_file_name("shard-x-gemm.wal"), None);
        assert_eq!(parse_wal_file_name("journal.wal"), None);
    }
}
