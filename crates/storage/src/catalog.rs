//! The materialization catalog.
//!
//! HELIX materializes selected intermediate results at iteration `t` so
//! that iteration `t+1` can load instead of recompute (paper §5). The
//! catalog is the on-disk half of that loop:
//!
//! * artifacts are stored one-per-file, named by the 128-bit signature of
//!   the operator output (`helix-core`'s Merkle chain hash), so a hit *is*
//!   an equivalent materialization in the sense of Definition 3;
//! * an append-only, hash-chained journal makes the store durable across
//!   sessions (see "Crash consistency" below);
//! * every store/load is timed through the [`DiskProfile`], and measured
//!   load times are remembered — these are the `l_i` statistics OEP uses
//!   ("if a node has an equivalent materialization … we would have run the
//!   exact same operator before and recorded accurate cᵢ and lᵢ", §5.2);
//! * `release` removes deprecated artifacts (HELIX "purges any
//!   previous materialization of original operators prior to execution",
//!   §6.6).
//!
//! ## Multi-tenancy
//!
//! One catalog can back many concurrent sessions (`helix-serve`). Every
//! artifact carries an *owner set*: the tenants that stored it. Signature
//! keying makes cross-tenant reuse automatic — if tenant A materialized a
//! node that tenant B's workflow also produces, B's planner sees a hit and
//! loads A's bytes (identical to what B would compute, because signatures
//! capture full provenance: operator versions, parent linkage, volatile
//! nonces, *and* the execution environment — seeds — at the nodes it
//! affects, so tenants may run distinct seeds and still share exactly the
//! seed-independent artifacts). The owner set drives:
//!
//! * **accounting** — [`used_bytes_for`](MaterializationCatalog::used_bytes_for)
//!   charges each owner the full size of every artifact it stored, which
//!   is what the engine's per-tenant storage budget checks;
//! * **hit attribution** — [`load_for`](MaterializationCatalog::load_for)
//!   classifies each load as a self-hit or a *cross-tenant* hit by the
//!   entry's **writer** set (who computed the bytes);
//! * **safe deprecation** — [`release`](MaterializationCatalog::release)
//!   removes one tenant's claim and deletes the file only when no owner
//!   remains. Consumers pin planned loads up front via
//!   [`claim_and_pin_if_present`](MaterializationCatalog::claim_and_pin_if_present)
//!   (atomic; failure = replan), so one tenant's iteration can never
//!   delete an artifact another tenant's in-flight plan depends on;
//! * **quota eviction** — [`evict_owned`](MaterializationCatalog::evict_owned)
//!   frees a tenant's *sole-owned* artifacts (deterministic oldest-first
//!   order) when a mandatory store would overflow its quota;
//! * **global-pressure eviction** — when the catalog carries a *global*
//!   byte budget ([`set_global_budget`](MaterializationCatalog::set_global_budget);
//!   `helix-serve` sets its service-wide storage budget) and a store
//!   would overflow it even though every tenant is inside its own quota,
//!   [`evict_global`](MaterializationCatalog::evict_global) frees
//!   artifacts across tenants in **retention-score order**: sole-owned
//!   (refcount ≤ 1) artifacts go first, oldest first, then by signature;
//!   cross-tenant artifacts with writer/reader refcount > 1 are retained
//!   longer (popularity retention) and fall only when nothing unpopular
//!   remains. Entries named by the caller's `protected` set (its current
//!   plan) or transiently **pinned** by any in-flight iteration
//!   ([`pin_many`](MaterializationCatalog::pin_many)) are never victims,
//!   so global pressure can never delete bytes an executing plan is
//!   about to load. Every eviction (quota or global) is recorded in a
//!   bounded attribution log
//!   ([`eviction_log`](MaterializationCatalog::eviction_log), last
//!   [`EVICTION_LOG_CAP`] events) that `ServiceStats` surfaces.
//!
//! ## Crash consistency: the catalog journal
//!
//! Durability is an append-only, hash-chained **journal**
//! (`catalog.journal`, see [`crate::journal`]): every commit appends one
//! O(entry) frame (`Upsert`/`Remove`/`Clear`) instead of rewriting the
//! whole index, and artifact writes stay temp-file + atomic-rename.
//! Recovery is deterministic: scan the journal, verify CRC and chain
//! linkage per frame, replay the longest valid prefix, then drop entries
//! whose backing artifact file is missing. Torn tails are truncated,
//! stale temp files and artifact files the journal does not reference
//! are swept, and sweep *failures* are surfaced (not swallowed) in
//! [`RecoveryStats`] together with an on-disk byte reconciliation — an
//! orphan that cannot be deleted stays visible as `stranded_bytes`
//! instead of silently consuming disk forever. The journal is compacted
//! to a single `Snapshot` frame when it grows well past the live entry
//! count (and on every recovery that repairs it), so scans stay bounded.
//! Open writes only what a repair needs: a fresh directory gets its
//! journal from its first commit.
//!
//! ## Format versioning
//!
//! Every frame header — journal records and `.hxm` artifacts alike —
//! carries the format version ([`MaterializationCatalog::FORMAT_VERSION`],
//! defined from [`crate::frame::FORMAT_VERSION`]) naming the signature
//! keying scheme and durable layout its bytes were written under. A
//! journal, snapshot, or (with the journal lost) artifact from a *newer*
//! format fails the open with a clear error and deletes nothing (reading
//! it anyway would misinterpret the keying). With the journal lost,
//! artifacts that are not current-format frames — pre-journal `HXM1`
//! files, garbage, short files — stay unreferenced and are swept.
//! Artifacts are recomputable by definition (the paper's premise), so
//! invalidation costs recomputation, never correctness.
//!
//! ## Staged commits: the one write path
//!
//! Every store is staged. [`stage_owned`](MaterializationCatalog::stage_owned)
//! performs *all bookkeeping immediately* — the entry appears in the
//! index, owner sets and quota accounting update, `contains`/loads work
//! (loads of a staged entry are served from the retained in-memory
//! bytes) — but defers the throttled file write to
//! [`complete_stage`](MaterializationCatalog::complete_stage), which
//! lands the file and seals one `Upsert` journal frame for it. The
//! pipelined engine hands the frame to a background writer, which calls
//! `complete_stage` off the critical path and
//! [`commit_staged`](MaterializationCatalog::commit_staged) (a journal
//! fsync) once its queue drains; without a writer the engine calls
//! `complete_stage` inline, and so does
//! [`store_owned`](MaterializationCatalog::store_owned). Because every
//! *decision* consumes only the in-memory index (which updates
//! synchronously at stage time, in the engine's deterministic finalize
//! order), the final catalog contents are independent of write
//! completion order. The journal never references a file that is not yet
//! durable: entries still pending are excluded from every frame, so a
//! crash mid-write recovers to a consistent catalog holding exactly the
//! writes that landed.

use crate::codec::{decode_value, encode_value};
use crate::disk::DiskProfile;
use crate::frame::{self, FrameError, FrameKind};
use crate::journal::{self, JournalWriter, ScanStop};
use helix_common::hash::Signature;
use helix_common::timing::Nanos;
use helix_common::{HelixError, Result, RingLog};
use helix_data::Value;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Owner label used by solo (non-service) sessions.
pub const SOLO_OWNER: &str = "";

/// Process-wide uniquifier for temp files and temp catalogs.
static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// Metadata for one materialized artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// Hex rendering of the owning signature.
    pub signature: String,
    /// File name inside the catalog root.
    pub file: String,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Human-readable node name (reports only; identity is the signature).
    pub node_name: String,
    /// Iteration number at which the artifact was written.
    pub created_iteration: u64,
    /// Time spent writing (throttled), in nanoseconds.
    pub write_nanos: Nanos,
    /// Most recent measured load time, if the artifact was ever loaded.
    pub measured_load_nanos: Option<Nanos>,
    /// Tenants with a lifecycle claim on this artifact: everyone who
    /// stored it plus everyone who claimed/loaded it into their working
    /// set (`None`/empty = legacy entry predating ownership, or a
    /// recovered entry). The artifact lives until the last owner
    /// releases it.
    pub owners: Option<Vec<String>>,
    /// The subset of owners that actually *wrote* the bytes. Hit
    /// attribution uses this: a load by a non-writer is a cross-tenant
    /// hit no matter how long the loader has had a claim.
    pub writers: Option<Vec<String>>,
}

impl CatalogEntry {
    /// The lifecycle-claim set (empty for legacy/recovered entries).
    pub fn owners(&self) -> &[String] {
        self.owners.as_deref().unwrap_or(&[])
    }

    /// The writer set (empty for legacy/recovered entries).
    pub fn writers(&self) -> &[String] {
        self.writers.as_deref().unwrap_or(&[])
    }

    /// Whether `owner` has a lifecycle claim.
    pub fn is_owned_by(&self, owner: &str) -> bool {
        self.owners().iter().any(|o| o == owner)
    }

    /// Whether `owner` stored these bytes.
    pub fn is_written_by(&self, owner: &str) -> bool {
        self.writers().iter().any(|o| o == owner)
    }

    fn add_owner(&mut self, owner: &str) {
        let owners = self.owners.get_or_insert_with(Vec::new);
        if !owners.iter().any(|o| o == owner) {
            owners.push(owner.to_string());
            owners.sort();
        }
    }

    fn add_writer(&mut self, owner: &str) {
        let writers = self.writers.get_or_insert_with(Vec::new);
        if !writers.iter().any(|o| o == owner) {
            writers.push(owner.to_string());
            writers.sort();
        }
    }
}

/// Per-owner usage and reuse statistics (process-lifetime, not persisted).
#[derive(Clone, Debug, Default)]
pub struct OwnerStats {
    /// Loads of artifacts this owner had stored itself.
    pub self_hits: u64,
    /// Loads of artifacts stored only by *other* owners — the
    /// cross-tenant reuse the service exists to harvest.
    pub cross_hits: u64,
    /// Artifacts stored by this owner.
    pub stores: u64,
    /// Bytes written by this owner's stores.
    pub stored_bytes: u64,
    /// Artifacts evicted from this owner to satisfy its quota.
    pub quota_evictions: u64,
    /// Artifacts this owner had a claim on that fell to *global-pressure*
    /// eviction (the global byte budget was tight; the victim may have
    /// been triggered by another tenant's store).
    pub global_evictions: u64,
}

/// Why an artifact was evicted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum EvictionKind {
    /// The owning tenant's quota was tight (scoped to its sole-owned
    /// artifacts).
    Quota,
    /// The catalog's *global* byte budget was tight (victims scored
    /// across tenants by the retention function).
    GlobalPressure,
}

/// One entry of the bounded eviction-attribution log.
#[derive(Clone, Debug, Serialize)]
pub struct EvictionRecord {
    /// Hex signature of the evicted artifact.
    pub signature: String,
    /// Human-readable node name.
    pub node_name: String,
    /// Encoded size that was freed.
    pub bytes: u64,
    /// Owner set at eviction time (whose working sets lost the artifact).
    pub owners: Vec<String>,
    /// The tenant whose store triggered the eviction.
    pub trigger: String,
    /// Quota or global pressure.
    pub kind: EvictionKind,
}

/// How many recent [`EvictionRecord`]s the catalog retains — bounded, so
/// a long-running service's stats cannot grow without limit (the same
/// treatment as per-tenant session-seed history; both now share the
/// workspace-wide [`helix_common::BOUNDED_LOG_CAP`]).
pub const EVICTION_LOG_CAP: usize = helix_common::BOUNDED_LOG_CAP;

impl OwnerStats {
    /// Total catalog loads attributed to this owner.
    pub fn loads(&self) -> u64 {
        self.self_hits + self.cross_hits
    }

    /// Fraction of this owner's loads served by other tenants' artifacts.
    pub fn cross_hit_rate(&self) -> f64 {
        let loads = self.loads();
        if loads == 0 {
            return 0.0;
        }
        self.cross_hits as f64 / loads as f64
    }
}

/// Payload of a [`FrameKind::Snapshot`] journal frame: the full entry
/// set at a compaction point, plus the keying-format version the chain
/// was written under (the chain's first frame is always a snapshot, so
/// the journal is self-describing).
#[derive(Serialize, Deserialize)]
struct SnapshotRecord {
    format_version: u32,
    entries: Vec<CatalogEntry>,
}

/// Payload of a [`FrameKind::Remove`] journal frame.
#[derive(Serialize, Deserialize)]
struct RemoveRecord {
    signature: String,
}

/// One file the recovery sweep tried and failed to delete. Surfaced
/// instead of swallowed: a permission error must not leave orphan bytes
/// invisible forever.
#[derive(Clone, Debug, Serialize)]
pub struct SweepFailure {
    /// File name inside the catalog root.
    pub file: String,
    /// The OS error.
    pub error: String,
}

/// What [`MaterializationCatalog::open`] found and repaired. Serialized
/// alongside benchmark artifacts in CI so recovery behavior is
/// observable, not just correct.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RecoveryStats {
    /// Whether open had to repair anything at all (torn tail, damaged
    /// frames, dropped entries, migration, or salvage).
    pub recovered: bool,
    /// Set when data from an older format was invalidated: the journal
    /// snapshot's version, or 1 for artifact files found without a
    /// journal that are not current-format frames (pre-journal `HXM1`
    /// files record no version).
    pub migrated_from: Option<u32>,
    /// Entries were rebuilt by scanning artifact files (journal absent;
    /// each file's frame header names the current format).
    pub salvaged_by_scan: bool,
    /// Frames replayed from the journal's valid prefix.
    pub journal_frames_replayed: u64,
    /// Bytes past the valid prefix (torn tail / damage), truncated away.
    pub journal_tail_bytes: u64,
    /// Why the journal scan stopped early, when it did.
    pub journal_stop: Option<String>,
    /// Replayed entries dropped because their backing file is missing.
    pub entries_dropped_missing_file: u64,
    /// Crash leftovers (temps, unreferenced artifacts) deleted by the
    /// sweep.
    pub swept_files: u64,
    /// Bytes those deletions freed.
    pub swept_bytes: u64,
    /// Sweep deletions that *failed* — surfaced, not ignored.
    pub sweep_failures: Vec<SweepFailure>,
    /// Bytes of files that should be gone but could not be deleted.
    pub stranded_bytes: u64,
    /// Total bytes of all files in the catalog directory after recovery
    /// (reconciliation scan).
    pub disk_bytes_after_open: u64,
    /// Bytes accounted by live entries after recovery. The difference
    /// from `disk_bytes_after_open` is journal + stranded bytes.
    pub accounted_bytes_after_open: u64,
    /// The journal was rewritten (compacted to one snapshot) at open.
    pub journal_rewritten: bool,
}

/// A mutation the journal must record.
enum JournalOp {
    /// Entry for this signature was inserted/replaced (payload is a
    /// fresh clone read under the lock at append time).
    Upsert(Signature),
    /// Entry for this signature was removed.
    Remove(Signature),
    /// All entries were removed.
    Clear,
}

struct Inner {
    entries: HashMap<Signature, CatalogEntry>,
    total_bytes: u64,
    owned_bytes: HashMap<String, u64>,
    stats: HashMap<String, OwnerStats>,
    /// Staged entries whose file write has not landed yet: encoded bytes
    /// retained so loads can be served from memory meanwhile. Keyed by
    /// signature; the `Arc` identity doubles as a staleness token for
    /// [`MaterializationCatalog::complete_stage`].
    pending: HashMap<Signature, Arc<Vec<u8>>>,
    /// Global byte budget; `None` = unbounded (solo-session semantics,
    /// where only per-tenant budgets apply).
    global_budget: Option<u64>,
    /// Transient pin refcounts: signatures an in-flight iteration's plan
    /// will load. Global-pressure eviction never touches a pinned entry —
    /// this is the cross-session analogue of the caller-local `protected`
    /// set. Pins are scoped to an iteration (RAII in the session layer),
    /// unlike owner claims, which persist.
    pins: HashMap<Signature, usize>,
    /// Bounded attribution log of evictions ([`EVICTION_LOG_CAP`]).
    eviction_log: RingLog<EvictionRecord>,
    /// Entries whose in-memory metadata (claims, measured load times)
    /// has drifted from the journal. Loads and claims stay write-free on
    /// the hot path; the dirty set is drained — one `Upsert` frame each,
    /// with a fresh clone read under the lock — at the next journal
    /// commit.
    dirty: HashSet<Signature>,
    /// Monotonic byte-accounting epoch: bumped whenever any owner's
    /// charged bytes (or the physical total) change — every such change
    /// flows through [`Inner::credit`]/[`Inner::debit`] (entries always
    /// carry ≥ 1 owner) or [`MaterializationCatalog::clear`]. Readers
    /// that derive state from byte usage (the admission scheduler's DRF
    /// ledger) memoize on this and skip their refresh walk while it is
    /// unchanged.
    byte_epoch: u64,
}

impl Inner {
    fn credit(&mut self, owners: &[String], bytes: u64) {
        self.byte_epoch += 1;
        for owner in owners {
            *self.owned_bytes.entry(owner.clone()).or_insert(0) += bytes;
        }
    }

    fn debit(&mut self, owners: &[String], bytes: u64) {
        self.byte_epoch += 1;
        for owner in owners {
            if let Some(b) = self.owned_bytes.get_mut(owner) {
                *b = b.saturating_sub(bytes);
            }
        }
    }

    /// Append to the bounded eviction-attribution log (oldest dropped
    /// beyond [`EVICTION_LOG_CAP`], counted by the ring).
    fn log_eviction(&mut self, record: EvictionRecord) {
        self.eviction_log.push(record);
    }

    /// Remove an entry and fix all byte accounting; returns its file name.
    /// A staged-but-unwritten entry is cancelled too (the in-flight
    /// background write detects the dropped pending token and unlinks
    /// whatever it landed).
    fn remove_entry(&mut self, sig: Signature) -> Option<String> {
        let entry = self.entries.remove(&sig)?;
        self.pending.remove(&sig);
        self.dirty.remove(&sig);
        self.total_bytes -= entry.bytes;
        let owners = entry.owners().to_vec();
        self.debit(&owners, entry.bytes);
        Some(entry.file)
    }
}

/// Directory-backed artifact store keyed by operator-output signatures.
///
/// Safe to share (`Arc`) across threads and sessions: the in-memory index
/// sits behind a mutex, artifact writes are atomic temp-file + rename
/// sequences, and journal appends are serialized by the journal-writer
/// mutex. Lock order is always journal → inner.
pub struct MaterializationCatalog {
    root: PathBuf,
    disk: DiskProfile,
    inner: Mutex<Inner>,
    /// The append-only durable log; `None` until the first commit when
    /// open found nothing to record. Holding this lock across
    /// snapshot-read + append also guarantees a slower committer can
    /// never write an older state after a newer one.
    journal: Mutex<Option<JournalWriter>>,
    /// What `open` found and repaired (immutable after open).
    recovery: RecoveryStats,
}

impl MaterializationCatalog {
    /// The journal file name.
    const JOURNAL: &'static str = "catalog.journal";
    /// The catalog format this build reads and writes: the frame-format
    /// version ([`crate::frame::FORMAT_VERSION`]) every frame header
    /// carries. Bump that whenever the signature keying scheme OR the
    /// durable layout changes meaning (v2: execution-environment
    /// provenance — seeds — folded into chain signatures; v3: the
    /// hash-chained journal replaced the JSON manifest).
    pub const FORMAT_VERSION: u32 = frame::FORMAT_VERSION as u32;
    /// Compact the journal once it carries more than
    /// `4 × live entries + 64` frames: scans stay O(catalog), while
    /// steady-state commits stay O(entry).
    const COMPACT_SLACK: u64 = 64;

    /// Open (or create) a catalog rooted at `root`, replaying the journal
    /// so previous sessions' artifacts are reusable.
    ///
    /// Recovery is deterministic (module docs): list the directory once,
    /// scan the journal, replay the longest CRC- and chain-valid prefix,
    /// drop entries whose backing artifact file is missing, sweep crash
    /// leftovers (recording failures, not swallowing them), and report
    /// everything in [`RecoveryStats`]. With no journal, artifact files
    /// are classified by their frame headers: current-format frames are
    /// salvaged by scan, a newer format refuses the open, anything else
    /// is swept. Open writes only what a repair needs; a fresh
    /// directory's journal is created by its first commit.
    pub fn open(root: impl Into<PathBuf>, disk: DiskProfile) -> Result<MaterializationCatalog> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let journal_path = root.join(Self::JOURNAL);
        let mut stats = RecoveryStats::default();

        // The one listing every recovery decision reads: file name →
        // whether it is a regular file. Sorted, so the sweep (and its
        // stats) are deterministic regardless of `read_dir` order.
        let listing: BTreeMap<String, bool> = std::fs::read_dir(&root)?
            .flatten()
            .map(|dirent| {
                let regular = dirent.file_type().is_ok_and(|t| t.is_file());
                (dirent.file_name().to_string_lossy().into_owned(), regular)
            })
            .collect();

        let replay_begin = helix_obs::now_nanos();
        let scan = if listing.contains_key(Self::JOURNAL) {
            journal::scan_file(&journal_path)?
        } else {
            None
        };
        let mut entries: HashMap<Signature, CatalogEntry> = HashMap::new();
        // A fresh snapshot is written (instead of appending to the
        // scanned prefix) whenever the journal is damaged beyond a clean
        // end or migrated, and after a salvage; `maybe-compact` handles
        // the merely long case below.
        let mut needs_rewrite = false;
        match &scan {
            Some(scan) => {
                // A *first* frame from a newer frame format means a newer
                // build owns this directory: refuse rather than treat its
                // data as damage and destroy it. (A mid-journal version
                // jump is indistinguishable from bit rot in the version
                // byte and is handled as damage: the prefix before it is
                // replayed, the rest dropped.)
                if scan.frames == 0 {
                    if let Some(ScanStop::UnsupportedVersion(v)) = scan.stop {
                        if u32::from(v) > Self::FORMAT_VERSION {
                            return Err(Self::refuse_newer(&journal_path, u32::from(v)));
                        }
                    }
                }
                stats.journal_tail_bytes = scan.tail_bytes;
                stats.journal_stop = scan.stop.map(|s| s.to_string());
                if scan.stop.is_some() || scan.tail_bytes > 0 {
                    stats.recovered = true;
                    needs_rewrite = true;
                }
                let (version, replayed, frames_replayed, clean) = Self::replay(&scan.records);
                stats.journal_frames_replayed = frames_replayed;
                entries = replayed;
                if !clean {
                    // A CRC-valid frame carrying an unreadable payload:
                    // the prefix before it is still trusted, the rest is
                    // not.
                    stats.journal_stop = Some("bad-payload".to_string());
                    stats.recovered = true;
                    needs_rewrite = true;
                }
                // Keying-format gate, from the snapshot frame. Newer:
                // refuse rather than misread (signature-equal-looking
                // entries might not be shareable). Older: migrate by
                // invalidation — the entries' signatures were computed
                // under a scheme that could alias current-scheme
                // signatures while holding different bytes. Artifacts
                // are recomputable by definition, so invalidation costs
                // recomputation, never correctness.
                if version > Self::FORMAT_VERSION {
                    return Err(Self::refuse_newer(&journal_path, version));
                }
                if version < Self::FORMAT_VERSION {
                    entries.clear();
                    stats.migrated_from = Some(version);
                    stats.recovered = true;
                    needs_rewrite = true;
                }
            }
            None => {
                // No journal: a fresh directory, a crash before the first
                // commit, or manual deletion. Every artifact frame names
                // its format in its header, so classify each hex-named
                // `.hxm` by it. A current-format frame is salvaged: node
                // names and iterations are lost, but sizes and signatures
                // (what correctness depends on) live in the file and its
                // name, and every load still verifies the CRC. A newer
                // one refuses the open before anything is deleted.
                // Anything else (a pre-journal `HXM1` artifact, garbage,
                // a short file) stays unreferenced and is swept below.
                for (name, _) in listing.iter().filter(|(_, regular)| **regular) {
                    let Some(sig) = name.strip_suffix(".hxm").and_then(Signature::from_hex) else {
                        continue;
                    };
                    let path = root.join(name);
                    let mut file = std::fs::File::open(&path)?;
                    let mut header = Vec::with_capacity(frame::HEADER_LEN);
                    (&mut file).take(frame::HEADER_LEN as u64).read_to_end(&mut header)?;
                    // A whole header whose magic and version check out
                    // parses as a truncated frame: the payload is unread.
                    match frame::parse_frame(&header) {
                        Err(FrameError::Truncated) if header.len() == frame::HEADER_LEN => {
                            entries.insert(
                                sig,
                                CatalogEntry {
                                    signature: sig.to_hex(),
                                    file: name.clone(),
                                    bytes: file.metadata()?.len(),
                                    node_name: "(recovered)".to_string(),
                                    created_iteration: 0,
                                    write_nanos: 0,
                                    measured_load_nanos: None,
                                    owners: None,
                                    writers: None,
                                },
                            );
                        }
                        Err(FrameError::UnsupportedVersion(v))
                            if u32::from(v) > Self::FORMAT_VERSION =>
                        {
                            return Err(Self::refuse_newer(&path, u32::from(v)));
                        }
                        _ => stats.migrated_from = Some(1),
                    }
                }
                if !entries.is_empty() {
                    stats.salvaged_by_scan = true;
                    stats.recovered = true;
                }
            }
        }
        let _ = helix_obs::span_at(
            helix_obs::layer::STORAGE,
            "recovery.replay",
            replay_begin,
            helix_obs::now_nanos().saturating_sub(replay_begin),
        )
        .amount(stats.journal_frames_replayed);

        let mut inner = Inner {
            entries: HashMap::new(),
            total_bytes: 0,
            owned_bytes: HashMap::new(),
            stats: HashMap::new(),
            pending: HashMap::new(),
            global_budget: None,
            pins: HashMap::new(),
            eviction_log: RingLog::new(EVICTION_LOG_CAP),
            dirty: HashSet::new(),
            byte_epoch: 0,
        };
        for (sig, entry) in entries {
            // Only trust entries whose backing file is listed (and is a
            // regular file — a directory squatting on the name cannot
            // serve loads).
            if listing.get(&entry.file) == Some(&true) {
                inner.total_bytes += entry.bytes;
                let owners = entry.owners().to_vec();
                inner.credit(&owners, entry.bytes);
                inner.entries.insert(sig, entry);
            } else {
                stats.entries_dropped_missing_file += 1;
                stats.recovered = true;
                needs_rewrite = true;
            }
        }

        // Sweep crash leftovers: temp files of every lane (artifact
        // writes, journal compactions) and artifact files no live entry
        // references — the journal is the sole source of truth, so an
        // unreferenced artifact is a stage that landed its file but
        // crashed before its journal frame (or, with the journal lost, a
        // file that is not a current-format frame). Failures are
        // recorded, never swallowed: a file that cannot be deleted stays
        // visible as stranded bytes instead of silently consuming disk.
        let referenced: HashSet<&str> = inner.entries.values().map(|e| e.file.as_str()).collect();
        for name in listing.keys() {
            if name.contains(".tmp-") || (name.ends_with(".hxm") && !referenced.contains(&**name)) {
                Self::sweep_file(&root.join(name), name, &mut stats);
            }
        }
        if stats.swept_files > 0 || !stats.sweep_failures.is_empty() {
            stats.recovered = true;
        }

        // Position the journal writer: resume the scanned chain (torn
        // tail truncated by `append_to`) when the prefix was healthy and
        // short enough; leave it to the first commit when there is no
        // journal and nothing to record; otherwise write one fresh
        // snapshot frame.
        let threshold = 4 * inner.entries.len() as u64 + Self::COMPACT_SLACK;
        let writer = match &scan {
            Some(scan) if !needs_rewrite && scan.frames <= threshold => {
                Some(JournalWriter::append_to(&journal_path, scan)?)
            }
            None if inner.entries.is_empty() => None,
            _ => {
                stats.journal_rewritten = true;
                let payload = Self::snapshot_payload(&inner)?;
                Some(JournalWriter::rewrite(
                    &journal_path,
                    [(FrameKind::Snapshot, payload.as_slice())],
                )?)
            }
        };

        // Reconciliation: what is physically on disk vs what live
        // entries account for. The difference is the journal (+ any
        // stranded bytes) — drift beyond that is observable in CI.
        for dirent in std::fs::read_dir(&root)?.flatten() {
            if let Ok(meta) = dirent.metadata() {
                if meta.is_file() {
                    stats.disk_bytes_after_open += meta.len();
                }
            }
        }
        stats.accounted_bytes_after_open = inner.total_bytes;

        Ok(MaterializationCatalog {
            root,
            disk,
            inner: Mutex::new(inner),
            journal: Mutex::new(writer),
            recovery: stats,
        })
    }

    /// Replay scanned journal records into an entry map. Returns the
    /// keying-format version (current when the journal is empty), the
    /// live entries, the count of frames replayed, and whether every
    /// payload parsed — `false` means a CRC-valid frame carried an
    /// unreadable payload; the prefix *before* it is still trusted.
    fn replay(
        records: &[(FrameKind, Vec<u8>)],
    ) -> (u32, HashMap<Signature, CatalogEntry>, u64, bool) {
        let mut version = Self::FORMAT_VERSION;
        let mut map: HashMap<Signature, CatalogEntry> = HashMap::new();
        let mut replayed = 0u64;
        let insert = |map: &mut HashMap<Signature, CatalogEntry>, e: CatalogEntry| -> bool {
            match Signature::from_hex(&e.signature) {
                Some(sig) => {
                    map.insert(sig, e);
                    true
                }
                None => false,
            }
        };
        for (kind, payload) in records {
            let ok = match kind {
                FrameKind::Snapshot => match serde_json::from_slice::<SnapshotRecord>(payload) {
                    Ok(snap) => {
                        version = snap.format_version;
                        map.clear();
                        snap.entries.into_iter().all(|e| insert(&mut map, e))
                    }
                    Err(_) => false,
                },
                FrameKind::Upsert => match serde_json::from_slice::<CatalogEntry>(payload) {
                    Ok(e) => insert(&mut map, e),
                    Err(_) => false,
                },
                FrameKind::Remove => match serde_json::from_slice::<RemoveRecord>(payload) {
                    Ok(r) => match Signature::from_hex(&r.signature) {
                        Some(sig) => {
                            map.remove(&sig);
                            true
                        }
                        None => false,
                    },
                    Err(_) => false,
                },
                FrameKind::Clear => {
                    map.clear();
                    true
                }
                // An artifact frame has no business inside the journal.
                FrameKind::Artifact => false,
            };
            if !ok {
                return (version, map, replayed, false);
            }
            replayed += 1;
        }
        (version, map, replayed, true)
    }

    /// The refusal for data a newer build wrote: reading it anyway would
    /// misinterpret its keying, and sweeping it would destroy it.
    fn refuse_newer(path: &Path, version: u32) -> HelixError {
        HelixError::config(format!(
            "{} uses catalog format v{version}, newer than this build's v{}; refusing to \
             misread it (upgrade helix or use a different catalog directory)",
            path.display(),
            Self::FORMAT_VERSION,
        ))
    }

    /// Delete one crash leftover, recording the outcome in `stats`.
    fn sweep_file(path: &Path, name: &str, stats: &mut RecoveryStats) {
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        match std::fs::remove_file(path) {
            Ok(()) => {
                stats.swept_files += 1;
                stats.swept_bytes += bytes;
            }
            Err(e) => {
                stats
                    .sweep_failures
                    .push(SweepFailure { file: name.to_string(), error: e.to_string() });
                stats.stranded_bytes += bytes;
            }
        }
    }

    /// Open a throwaway catalog in a fresh temp directory (tests, examples).
    pub fn open_temp(disk: DiskProfile) -> Result<MaterializationCatalog> {
        let dir = std::env::temp_dir().join(format!(
            "helix-catalog-{}-{:x}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0),
            UNIQUE.fetch_add(1, Ordering::Relaxed),
        ));
        Self::open(dir, disk)
    }

    /// The disk profile in force.
    pub fn disk(&self) -> DiskProfile {
        self.disk
    }

    /// Catalog root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether an equivalent materialization exists (Definition 3).
    pub fn contains(&self, sig: Signature) -> bool {
        self.inner.lock().entries.contains_key(&sig)
    }

    /// Metadata for a signature.
    pub fn entry(&self, sig: Signature) -> Option<CatalogEntry> {
        self.inner.lock().entries.get(&sig).cloned()
    }

    /// All entries (deterministically ordered by signature) for reports.
    pub fn entries(&self) -> Vec<CatalogEntry> {
        let inner = self.inner.lock();
        let mut out: Vec<CatalogEntry> = inner.entries.values().cloned().collect();
        out.sort_by(|a, b| a.signature.cmp(&b.signature));
        out
    }

    /// Total bytes currently materialized (physical footprint).
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().total_bytes
    }

    /// Bytes charged against `owner`'s storage budget. The solo owner is
    /// charged the whole catalog (single-session semantics, and legacy
    /// entries have no owner records); a named tenant is charged the full
    /// size of every artifact it stored, shared or not — conservative,
    /// simple, and deterministic.
    pub fn used_bytes_for(&self, owner: &str) -> u64 {
        let inner = self.inner.lock();
        if owner == SOLO_OWNER {
            inner.total_bytes
        } else {
            inner.owned_bytes.get(owner).copied().unwrap_or(0)
        }
    }

    /// [`used_bytes_for`](Self::used_bytes_for) for several owners under
    /// a *single* lock hold (the scheduler refreshes every queued
    /// tenant's DRF byte usage once per pick round; one acquisition
    /// instead of one per tenant).
    pub fn used_bytes_for_many(&self, owners: &[String]) -> Vec<u64> {
        let inner = self.inner.lock();
        owners
            .iter()
            .map(|owner| {
                if owner == SOLO_OWNER {
                    inner.total_bytes
                } else {
                    inner.owned_bytes.get(owner.as_str()).copied().unwrap_or(0)
                }
            })
            .collect()
    }

    /// Monotonic byte-accounting epoch: changes iff some owner's charged
    /// bytes (or the physical total) may have changed since it was last
    /// read. Lets per-round byte refreshes (the scheduler's
    /// `set_tenant_bytes` walk) become a single lock-and-compare when
    /// nothing stored, claimed, released, or evicted in between.
    pub fn dirty_epoch(&self) -> u64 {
        self.inner.lock().byte_epoch
    }

    /// Reuse/usage statistics for an owner (zeroes if never seen).
    pub fn owner_stats(&self, owner: &str) -> OwnerStats {
        self.inner.lock().stats.get(owner).cloned().unwrap_or_default()
    }

    /// Number of artifacts.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no artifacts are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Load-time estimate for OEP: always the bandwidth-model estimate
    /// from the artifact size — a pure function of (size, disk profile),
    /// so the `l_i` a plan sees never depends on whether, when, or how
    /// often the artifact was loaded. (`measured_load_nanos` is retained
    /// as observability metadata only; consulting it here would let
    /// values persisted by older builds — real measurements — flip plans
    /// mid-session after the first load overwrote them.)
    pub fn estimated_load_nanos(&self, sig: Signature) -> Option<Nanos> {
        let inner = self.inner.lock();
        let entry = inner.entries.get(&sig)?;
        Some(self.disk.estimate_load_nanos(entry.bytes))
    }

    /// Materialize `value` under `sig` for the solo owner.
    pub fn store(
        &self,
        sig: Signature,
        node_name: &str,
        iteration: u64,
        value: &Value,
    ) -> Result<(u64, Nanos)> {
        self.store_owned(sig, SOLO_OWNER, node_name, iteration, value)
    }

    /// Materialize `value` under `sig`, recording `owner` in the artifact's
    /// owner set: [`stage_owned`](Self::stage_owned) and
    /// [`complete_stage`](Self::complete_stage) back to back, so the file
    /// has landed and its journal frame is sealed on return. Returns
    /// `(encoded bytes, measured write nanoseconds)`. Overwrites any
    /// previous artifact for the signature (owners accumulate).
    pub fn store_owned(
        &self,
        sig: Signature,
        owner: &str,
        node_name: &str,
        iteration: u64,
        value: &Value,
    ) -> Result<(u64, Nanos)> {
        let (bytes, _, frame) = self.stage_owned(sig, owner, node_name, iteration, value)?;
        Ok((bytes, self.complete_stage(sig, &frame)?))
    }

    /// Stage a materialization: all index bookkeeping happens *now* —
    /// entry visible, owners/writers recorded, quota charged, loads
    /// servable from the retained bytes — but the throttled file write is
    /// deferred to [`complete_stage`](Self::complete_stage) (which also
    /// seals the entry's journal frame) and the journal fsync to
    /// [`commit_staged`](Self::commit_staged). The reported write time is
    /// the disk model's *target* for the size, the same wherever and
    /// whenever the write lands; the measured time is recorded on the
    /// entry when it does.
    ///
    /// Returns `(encoded bytes, modeled write nanos, encoded frame)`; the
    /// frame must be handed to `complete_stage` unchanged.
    pub fn stage_owned(
        &self,
        sig: Signature,
        owner: &str,
        node_name: &str,
        iteration: u64,
        value: &Value,
    ) -> Result<(u64, Nanos, Arc<Vec<u8>>)> {
        let encoded = Arc::new(encode_value(value));
        let bytes = encoded.len() as u64;
        let write_nanos = self.disk.write_target(bytes);
        let mut inner = self.inner.lock();
        // Owners and writers accumulate across re-stores of the same
        // signature.
        let (prior_owners, prior_writers) = inner
            .entries
            .get(&sig)
            .map(|e| (e.owners().to_vec(), e.writers().to_vec()))
            .unwrap_or_default();
        inner.remove_entry(sig);
        let mut entry = CatalogEntry {
            signature: sig.to_hex(),
            file: format!("{}.hxm", sig.to_hex()),
            bytes,
            node_name: node_name.to_string(),
            created_iteration: iteration,
            write_nanos,
            measured_load_nanos: None,
            owners: (!prior_owners.is_empty()).then_some(prior_owners),
            writers: (!prior_writers.is_empty()).then_some(prior_writers),
        };
        entry.add_owner(owner);
        entry.add_writer(owner);
        let owners = entry.owners().to_vec();
        inner.total_bytes += bytes;
        inner.credit(&owners, bytes);
        inner.entries.insert(sig, entry);
        inner.pending.insert(sig, Arc::clone(&encoded));
        let stats = inner.stats.entry(owner.to_string()).or_default();
        stats.stores += 1;
        stats.stored_bytes += bytes;
        Ok((bytes, write_nanos, encoded))
    }

    /// Land a staged write: the throttled temp-write + atomic rename,
    /// run by a background writer off the critical path or inline by the
    /// engine and [`store_owned`](Self::store_owned). Returns the
    /// measured write time (zero when the stage was already stale).
    /// Concurrent stores of the same signature (two tenants finishing the
    /// same node) each rename a private temp file into place, so readers
    /// never see a torn file.
    ///
    /// Staleness is detected by `Arc` identity against the pending map:
    /// if the entry was released, quota-evicted, or re-stored between
    /// `stage_owned` and now, this write no longer speaks for the
    /// catalog. A stale stage detected *before* the write skips it
    /// entirely; one that turns stale mid-write leaves its file in place
    /// — a newer writer for the signature overwrites the same path, and
    /// a file nobody ends up referencing is swept at the next open.
    /// Crucially, this path never unlinks: deciding "orphan" here and
    /// deleting outside the lock could destroy the freshly renamed
    /// artifact of a newer stage for the same signature.
    pub fn complete_stage(&self, sig: Signature, encoded: &Arc<Vec<u8>>) -> Result<Nanos> {
        let fresh = |inner: &Inner| match inner.pending.get(&sig) {
            Some(current) => Arc::ptr_eq(current, encoded),
            None => false,
        };
        if !fresh(&self.inner.lock()) {
            return Ok(0);
        }
        let bytes = encoded.len() as u64;
        let file = format!("{}.hxm", sig.to_hex());
        let path = self.root.join(&file);
        let tmp =
            self.root.join(format!("{}.tmp-{}", file, UNIQUE.fetch_add(1, Ordering::Relaxed)));
        let (io_result, write_nanos) = self.disk.run_write(bytes, || {
            std::fs::write(&tmp, encoded.as_slice())?;
            std::fs::rename(&tmp, &path)
        });
        io_result?;
        let landed = {
            let mut inner = self.inner.lock();
            if fresh(&inner) {
                inner.pending.remove(&sig);
                if let Some(entry) = inner.entries.get_mut(&sig) {
                    entry.write_nanos = write_nanos;
                }
                true
            } else {
                // Turned stale mid-write: leave the file (see doc
                // comment).
                false
            }
        };
        if landed {
            // The file is durable (renamed into place), so seal its
            // journal frame now: a crash before `commit_staged` recovers
            // this entry, and a store needs no `commit_staged` at all.
            self.journal_commit(&[JournalOp::Upsert(sig)])?;
        }
        Ok(write_nanos)
    }

    /// Fsync the journal after a background writer drained its queue —
    /// the durability point of a staged batch. Each landed stage sealed
    /// its own `Upsert` frame in [`complete_stage`](Self::complete_stage)
    /// already (entries still pending are excluded from every frame, so
    /// calling this early is safe, just not final); this drains any
    /// remaining dirty metadata and flushes the lot to stable storage.
    pub fn commit_staged(&self) -> Result<()> {
        self.journal_commit(&[])?;
        let _span = helix_obs::span(helix_obs::layer::STORAGE, "journal.fsync");
        // No journal yet: nothing was ever appended, so nothing to sync.
        self.journal.lock().as_mut().map_or(Ok(()), JournalWriter::sync)
    }

    /// Number of staged entries whose file write has not landed yet.
    pub fn pending_stages(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Load the artifact for `sig` (solo owner), recording the measured
    /// load time. Returns `(value, load nanoseconds)`.
    pub fn load(&self, sig: Signature) -> Result<(Value, Nanos)> {
        let (value, nanos, _) = self.load_for(sig, SOLO_OWNER)?;
        Ok((value, nanos))
    }

    /// Load the artifact for `sig` on behalf of `owner`, recording the
    /// load time and attributing the hit. The reported (and remembered)
    /// load time is the disk model's *estimate* for the entry size — a
    /// deterministic value that also equals the pre-load estimate, so
    /// the `l_i` statistics that feed OEP are identical across reruns,
    /// worker counts, pipelining modes, and load counts (wall-clock
    /// still pays the real, throttled cost). The third tuple field
    /// is `true` when this was a *cross-tenant* hit — `owner` never
    /// *wrote* these bytes; some other tenant computed them. (The writer
    /// set, not the claim set, drives attribution: a tenant that pinned
    /// another's artifact still scores cross hits on every reuse.)
    ///
    /// A cross-tenant load also records the loader as a **co-owner**: the
    /// artifact is now part of the loader's working set, so the
    /// producer's later deprecation (`release`) must not delete it, and
    /// its bytes count against the loader's quota. Planned loads are
    /// normally claimed earlier, at plan time
    /// ([`claim_and_pin_if_present`](Self::claim_and_pin_if_present)); this is the
    /// belt-and-braces path for direct `load_for` callers. The claim is
    /// applied in memory immediately and persisted at the next journal
    /// commit (loads stay write-free on the hot path).
    pub fn load_for(&self, sig: Signature, owner: &str) -> Result<(Value, Nanos, bool)> {
        let (file, bytes, cross, staged) = {
            let inner = self.inner.lock();
            let entry = inner
                .entries
                .get(&sig)
                .ok_or_else(|| HelixError::not_found("catalog entry", sig.to_hex()))?;
            let cross = !entry.writers().is_empty() && !entry.is_written_by(owner);
            (entry.file.clone(), entry.bytes, cross, inner.pending.get(&sig).cloned())
        };
        // A staged entry's file may not have landed yet: serve the
        // retained frame from memory (decoded straight from the shared
        // buffer — no copy), still paying the disk throttle so the wall
        // cost matches what a durable read would be.
        let value = match staged {
            Some(frame) => {
                self.disk.run_read(bytes, || ());
                decode_value(&frame)?
            }
            None => {
                let path = self.root.join(&file);
                let (io_result, _) = self.disk.run_read(bytes, || std::fs::read(&path));
                decode_value(&io_result?)?
            }
        };
        // The remembered value *exactly* equals `estimate_load_nanos` for
        // the same size (no rounding), so an entry's planning cost is
        // identical before and after its first load — deterministic `l_i`
        // across reruns, worker counts, and pipelining modes (wall-clock
        // still pays the real, throttled cost above). The planner applies
        // its own `max(1)` floor.
        let load_nanos = self.disk.estimate_load_nanos(bytes);
        {
            let mut inner = self.inner.lock();
            let mut claim: Option<u64> = None;
            if let Some(entry) = inner.entries.get_mut(&sig) {
                entry.measured_load_nanos = Some(load_nanos);
                if !entry.is_owned_by(owner) {
                    entry.add_owner(owner);
                    claim = Some(entry.bytes);
                }
                // Metadata drifted from the journal; persisted lazily at
                // the next commit (loads stay write-free).
                inner.dirty.insert(sig);
            }
            if let Some(bytes) = claim {
                inner.credit(&[owner.to_string()], bytes);
            }
            let stats = inner.stats.entry(owner.to_string()).or_default();
            if cross {
                stats.cross_hits += 1;
            } else {
                stats.self_hits += 1;
            }
        }
        Ok((value, load_nanos, cross))
    }

    /// Atomically claim `sig` into `owner`'s working set if it still
    /// exists: adds a lifecycle claim (and the quota charge) plus one
    /// transient pin under a *single* catalog lock hold and returns
    /// `true`; returns `false` when the artifact is gone.
    ///
    /// Sessions call this for every `Load` in a freshly computed plan,
    /// which closes the plan-to-execution race: once claimed, another
    /// tenant's `release` only drops *its* claim and quota eviction
    /// skips co-owned artifacts, so the bytes survive until this owner
    /// releases them. A `false` means the plan raced a deletion — the
    /// caller replans (the node falls back to `Compute`). Claim and pin
    /// land together so there is no window in which a concurrent
    /// [`evict_global`](Self::evict_global) can observe the artifact as
    /// claimed-but-unpinned and delete it out from under the plan; the
    /// matching unpins are released when the prepared iteration retires.
    pub fn claim_and_pin_if_present(&self, sig: Signature, owner: &str) -> bool {
        let mut inner = self.inner.lock();
        let mut claim: Option<u64> = None;
        let present = match inner.entries.get_mut(&sig) {
            None => false,
            Some(entry) => {
                if !entry.is_owned_by(owner) {
                    entry.add_owner(owner);
                    claim = Some(entry.bytes);
                }
                true
            }
        };
        if present {
            *inner.pins.entry(sig).or_insert(0) += 1;
            inner.dirty.insert(sig);
        }
        if let Some(bytes) = claim {
            inner.credit(&[owner.to_string()], bytes);
        }
        present
    }

    /// Drop `owner`'s claim on `sig`; the artifact (and file) goes away
    /// only when no owner remains. Legacy entries without owner records
    /// are treated as releasable by anyone. Returns `true` when the
    /// artifact was fully removed.
    ///
    /// This is the multi-tenant-safe spelling of the paper's §6.6 purge:
    /// tenant A deprecating a signature must not delete bytes tenant B
    /// still plans to load. Entries transiently pinned by an in-flight
    /// iteration ([`pin_many`](Self::pin_many)) are never unlinked here,
    /// for the same reason they are never eviction victims — the claim
    /// a sibling session *of the same tenant* takes on a planned load
    /// adds no co-owner, so without the pin check this session's
    /// deprecation could delete an artifact that sibling is about to
    /// load. A pinned release is a no-op (`false`); the deprecated entry
    /// lingers until the pin drops and a later release or eviction
    /// reclaims it.
    pub fn release(&self, sig: Signature, owner: &str) -> Result<bool> {
        enum Outcome {
            Removed(String),
            OwnerDropped,
            Untouched,
        }
        let outcome = {
            let mut inner = self.inner.lock();
            // Only the *unlink* outcomes are gated on pins: dropping one
            // owner of several never removes the file, so it stays safe
            // while pinned.
            let pinned = inner.pins.contains_key(&sig);
            match inner.entries.get_mut(&sig) {
                None => Outcome::Untouched,
                Some(entry) => {
                    let legacy = entry.owners().is_empty();
                    if (legacy || entry.owners() == [owner]) && pinned {
                        Outcome::Untouched
                    } else if legacy {
                        Outcome::Removed(inner.remove_entry(sig).expect("entry exists"))
                    } else if entry.is_owned_by(owner) {
                        if entry.owners().len() == 1 {
                            Outcome::Removed(inner.remove_entry(sig).expect("entry exists"))
                        } else {
                            let bytes = entry.bytes;
                            if let Some(owners) = entry.owners.as_mut() {
                                owners.retain(|o| o != owner);
                            }
                            inner.debit(&[owner.to_string()], bytes);
                            Outcome::OwnerDropped
                        }
                    } else {
                        Outcome::Untouched
                    }
                }
            }
        };
        match outcome {
            Outcome::Removed(file) => {
                self.remove_file(&file)?;
                self.journal_commit(&[JournalOp::Remove(sig)])?;
                Ok(true)
            }
            Outcome::OwnerDropped => {
                self.journal_commit(&[JournalOp::Upsert(sig)])?;
                Ok(false)
            }
            Outcome::Untouched => Ok(false),
        }
    }

    /// Quota eviction: free at least `bytes_needed` bytes of `owner`'s
    /// *sole-owned* artifacts (for the solo owner, legacy unowned entries
    /// qualify too), oldest first, then by signature — a deterministic
    /// order, so identical histories evict identically. Entries whose
    /// signature is in `protected` (the current iteration's plan) or
    /// transiently pinned by any in-flight iteration
    /// ([`pin_many`](Self::pin_many)) are never touched — the pin check
    /// matters for *sibling sessions of the same tenant*: a claim on an
    /// artifact the tenant already owns adds no co-owner, so without the
    /// pin one session's mandatory store could quota-evict a sole-owned
    /// artifact another session of the same tenant is about to load.
    /// Returns the bytes actually freed, which may fall short when
    /// nothing evictable remains.
    pub fn evict_owned(
        &self,
        owner: &str,
        bytes_needed: u64,
        protected: &HashSet<Signature>,
    ) -> Result<u64> {
        // Selection and index removal happen under ONE lock hold: a
        // concurrent `claim_and_pin_if_present`/`load_for` that co-owns an
        // artifact either lands before (the entry is no longer
        // sole-owned and is skipped) or after (the entry is already
        // gone and the claim fails, so the claimant replans) — never in
        // between.
        let eviction_span =
            helix_obs::span(helix_obs::layer::STORAGE, "evict.quota").tenant(owner.to_string());
        let mut freed = 0u64;
        let victims: Vec<(Signature, String)> = {
            let mut inner = self.inner.lock();
            let mut candidates: Vec<(Signature, u64, String)> = inner
                .entries
                .iter()
                .filter(|(sig, entry)| {
                    if protected.contains(sig) || inner.pins.contains_key(sig) {
                        return false;
                    }
                    let owners = entry.owners();
                    owners == [owner] || (owner == SOLO_OWNER && owners.is_empty())
                })
                .map(|(sig, entry)| (*sig, entry.created_iteration, entry.signature.clone()))
                .collect();
            candidates.sort_by(|a, b| (a.1, &a.2).cmp(&(b.1, &b.2)));
            let mut victims = Vec::new();
            for (sig, _, _) in candidates {
                if freed >= bytes_needed {
                    break;
                }
                let meta = inner
                    .entries
                    .get(&sig)
                    .map(|e| (e.bytes, e.node_name.clone(), e.owners().to_vec()));
                if let Some((bytes, node_name, owners)) = meta {
                    if let Some(file) = inner.remove_entry(sig) {
                        freed += bytes;
                        victims.push((sig, file));
                        inner.stats.entry(owner.to_string()).or_default().quota_evictions += 1;
                        inner.log_eviction(EvictionRecord {
                            signature: sig.to_hex(),
                            node_name,
                            bytes,
                            owners,
                            trigger: owner.to_string(),
                            kind: EvictionKind::Quota,
                        });
                    }
                }
            }
            victims
        };
        let _eviction_span = eviction_span.amount(freed);
        if victims.is_empty() {
            return Ok(0);
        }
        for (_, file) in &victims {
            self.remove_file(file)?;
        }
        let ops: Vec<JournalOp> = victims.iter().map(|(sig, _)| JournalOp::Remove(*sig)).collect();
        self.journal_commit(&ops)?;
        Ok(freed)
    }

    /// Set (or clear) the catalog's *global* byte budget. `helix-serve`
    /// sets its service-wide storage budget here at startup; solo
    /// sessions leave it unset (their per-tenant budget already caps the
    /// whole catalog).
    pub fn set_global_budget(&self, budget: Option<u64>) {
        self.inner.lock().global_budget = budget;
    }

    /// The global byte budget in force, if any.
    pub fn global_budget(&self) -> Option<u64> {
        self.inner.lock().global_budget
    }

    /// Transiently pin `sigs` for the duration of an iteration: pinned
    /// entries are never global-pressure victims. Pins nest (refcounts);
    /// the session layer holds them RAII-style from plan-claim time until
    /// the iteration retires, which closes the cross-session race a
    /// caller-local `protected` set cannot see — tenant A's store must
    /// not evict an artifact tenant B's *executing* plan is about to
    /// load.
    pub fn pin_many(&self, sigs: &[Signature]) {
        let mut inner = self.inner.lock();
        for sig in sigs {
            *inner.pins.entry(*sig).or_insert(0) += 1;
        }
    }

    /// Release pins taken by [`pin_many`](Self::pin_many).
    pub fn unpin_many(&self, sigs: &[Signature]) {
        let mut inner = self.inner.lock();
        for sig in sigs {
            if let Some(count) = inner.pins.get_mut(sig) {
                *count -= 1;
                if *count == 0 {
                    inner.pins.remove(sig);
                }
            }
        }
    }

    /// Number of distinct signatures currently pinned (tests).
    pub fn pinned_count(&self) -> usize {
        self.inner.lock().pins.len()
    }

    /// The bounded eviction-attribution log, oldest first (at most
    /// [`EVICTION_LOG_CAP`] events).
    pub fn eviction_log(&self) -> Vec<EvictionRecord> {
        self.inner.lock().eviction_log.to_vec()
    }

    /// Global-pressure eviction: free at least `bytes_needed` bytes
    /// across *all* tenants, in deterministic **retention-score** order.
    /// The score ranks victims:
    ///
    /// 1. **popularity class** — artifacts with writer/reader refcount
    ///    ≤ 1 (sole-owned or unowned) evict first; cross-tenant artifacts
    ///    with refcount > 1 are retained longer and fall only when
    ///    freeing every unpopular candidate was not enough;
    /// 2. **age** — `created_iteration` ascending;
    /// 3. **signature** — hex ascending (a total order, so identical
    ///    catalog states always evict identically).
    ///
    /// Entries in the caller's `protected` set (its current plan) or
    /// pinned by any in-flight iteration ([`pin_many`](Self::pin_many))
    /// are never victims. Evictions are attributed: every owner's
    /// `global_evictions` counter increments and the bounded
    /// [`eviction_log`](Self::eviction_log) records the victim with
    /// `trigger` (the tenant whose store created the pressure). Returns
    /// the bytes actually freed, which may fall short when everything
    /// left is protected or pinned.
    pub fn evict_global(
        &self,
        trigger: &str,
        bytes_needed: u64,
        protected: &HashSet<Signature>,
    ) -> Result<u64> {
        // Selection and index removal under ONE lock hold, exactly like
        // quota eviction: a concurrent claim lands entirely before (the
        // refcount rose — at worst the entry evicts a class later) or
        // entirely after (the claim fails and the claimant replans).
        let eviction_span =
            helix_obs::span(helix_obs::layer::STORAGE, "evict.global").tenant(trigger.to_string());
        let mut freed = 0u64;
        let victims: Vec<(Signature, String)> = {
            let mut inner = self.inner.lock();
            let mut candidates: Vec<(Signature, u8, u64, String)> = inner
                .entries
                .iter()
                .filter(|(sig, _)| !protected.contains(sig) && !inner.pins.contains_key(sig))
                .map(|(sig, entry)| {
                    let popular = u8::from(entry.owners().len() > 1);
                    (*sig, popular, entry.created_iteration, entry.signature.clone())
                })
                .collect();
            candidates.sort_by(|a, b| (a.1, a.2, &a.3).cmp(&(b.1, b.2, &b.3)));
            let mut victims = Vec::new();
            for (sig, _, _, _) in candidates {
                if freed >= bytes_needed {
                    break;
                }
                let meta = inner
                    .entries
                    .get(&sig)
                    .map(|e| (e.bytes, e.node_name.clone(), e.owners().to_vec()));
                if let Some((bytes, node_name, owners)) = meta {
                    if let Some(file) = inner.remove_entry(sig) {
                        freed += bytes;
                        victims.push((sig, file));
                        for owner in &owners {
                            inner.stats.entry(owner.clone()).or_default().global_evictions += 1;
                        }
                        inner.log_eviction(EvictionRecord {
                            signature: sig.to_hex(),
                            node_name,
                            bytes,
                            owners,
                            trigger: trigger.to_string(),
                            kind: EvictionKind::GlobalPressure,
                        });
                    }
                }
            }
            victims
        };
        let _eviction_span = eviction_span.amount(freed);
        if victims.is_empty() {
            return Ok(0);
        }
        for (_, file) in &victims {
            self.remove_file(file)?;
        }
        let ops: Vec<JournalOp> = victims.iter().map(|(sig, _)| JournalOp::Remove(*sig)).collect();
        self.journal_commit(&ops)?;
        Ok(freed)
    }

    /// Remove every artifact.
    pub fn clear(&self) -> Result<()> {
        let files: Vec<String> = {
            let mut inner = self.inner.lock();
            let files = inner.entries.values().map(|e| e.file.clone()).collect();
            inner.entries.clear();
            inner.pending.clear();
            inner.dirty.clear();
            inner.total_bytes = 0;
            inner.owned_bytes.clear();
            inner.byte_epoch += 1;
            files
        };
        for file in files {
            self.remove_file(&file)?;
        }
        self.journal_commit(&[JournalOp::Clear])
    }

    /// What the last [`open`](Self::open) found and repaired.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Unlink an artifact; one that is already gone counts as removed.
    fn remove_file(&self, file: &str) -> Result<()> {
        match std::fs::remove_file(self.root.join(file)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    fn entry_payload(entry: &CatalogEntry) -> Result<Vec<u8>> {
        serde_json::to_vec(entry)
            .map_err(|e| HelixError::codec(format!("catalog entry serialize error: {e}")))
    }

    /// Serialize the live, non-pending entry set as one snapshot payload
    /// (sorted by signature, so identical states are byte-identical).
    /// The journal never references a file that is not yet durable.
    fn snapshot_payload(inner: &Inner) -> Result<Vec<u8>> {
        let mut entries: Vec<CatalogEntry> = inner
            .entries
            .iter()
            .filter(|(sig, _)| !inner.pending.contains_key(sig))
            .map(|(_, e)| e.clone())
            .collect();
        entries.sort_by(|a, b| a.signature.cmp(&b.signature));
        Self::encode_snapshot(entries)
    }

    fn encode_snapshot(entries: Vec<CatalogEntry>) -> Result<Vec<u8>> {
        serde_json::to_vec(&SnapshotRecord { format_version: Self::FORMAT_VERSION, entries })
            .map_err(|e| HelixError::codec(format!("snapshot serialize error: {e}")))
    }

    /// Record `ops` — plus any metadata that drifted since the last
    /// commit (the dirty set) — as journal frames: one O(entry) append
    /// each, serialized by the journal lock. Payloads are snapshotted
    /// under both locks (journal → inner), so a slower committer can
    /// never append an older state after a newer one. Entries whose file
    /// write is still pending are skipped (their frame seals at
    /// `complete_stage`). Compacts when the journal has grown well past
    /// the live entry count. The first commit with frames to append
    /// creates a missing journal, opening it with the empty snapshot
    /// every chain starts from (open found nothing to record).
    fn journal_commit(&self, ops: &[JournalOp]) -> Result<()> {
        let mut journal = self.journal.lock();
        let (frames, live_entries) = {
            let mut inner = self.inner.lock();
            let mut dirty: Vec<Signature> = inner.dirty.drain().collect();
            dirty.sort();
            let mut frames: Vec<(FrameKind, Vec<u8>)> = Vec::new();
            for sig in dirty {
                if inner.pending.contains_key(&sig) {
                    continue;
                }
                if let Some(entry) = inner.entries.get(&sig) {
                    frames.push((FrameKind::Upsert, Self::entry_payload(entry)?));
                }
            }
            for op in ops {
                match op {
                    JournalOp::Upsert(sig) => {
                        if inner.pending.contains_key(sig) {
                            continue;
                        }
                        if let Some(entry) = inner.entries.get(sig) {
                            frames.push((FrameKind::Upsert, Self::entry_payload(entry)?));
                        }
                    }
                    JournalOp::Remove(sig) => {
                        let payload = serde_json::to_vec(&RemoveRecord { signature: sig.to_hex() })
                            .map_err(|e| {
                                HelixError::codec(format!("remove record serialize error: {e}"))
                            })?;
                        frames.push((FrameKind::Remove, payload));
                    }
                    JournalOp::Clear => frames.push((FrameKind::Clear, Vec::new())),
                }
            }
            (frames, inner.entries.len() as u64)
        };
        if journal.is_none() {
            if frames.is_empty() {
                return Ok(());
            }
            let mut writer = JournalWriter::create(&self.root.join(Self::JOURNAL))?;
            writer.append(FrameKind::Snapshot, &Self::encode_snapshot(Vec::new())?)?;
            *journal = Some(writer);
        }
        let journal = journal.as_mut().expect("created above");
        {
            let _span = helix_obs::span(helix_obs::layer::STORAGE, "journal.append")
                .amount(frames.len() as u64);
            for (kind, payload) in &frames {
                journal.append(*kind, payload)?;
            }
        }
        self.maybe_compact(journal, live_entries)
    }

    /// Rewrite the journal as one snapshot frame once it carries more
    /// than `4 × live entries + COMPACT_SLACK` frames, so recovery scans
    /// stay O(catalog) no matter how long the session ran.
    fn maybe_compact(&self, journal: &mut JournalWriter, live_entries: u64) -> Result<()> {
        if journal.frames() <= 4 * live_entries + Self::COMPACT_SLACK {
            return Ok(());
        }
        let _span =
            helix_obs::span(helix_obs::layer::STORAGE, "journal.compact").amount(journal.frames());
        let payload = Self::snapshot_payload(&self.inner.lock())?;
        let path = journal.path().to_path_buf();
        *journal = JournalWriter::rewrite(&path, [(FrameKind::Snapshot, payload.as_slice())])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::Scalar;

    fn scalar(v: f64) -> Value {
        Value::Scalar(Scalar::F64(v))
    }

    fn temp_catalog() -> MaterializationCatalog {
        MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap()
    }

    #[test]
    fn store_load_roundtrip() {
        let cat = temp_catalog();
        let sig = Signature::of_str("census/rows@v1");
        assert!(!cat.contains(sig));
        let (bytes, _) = cat.store(sig, "rows", 0, &scalar(0.5)).unwrap();
        assert!(bytes > 0);
        assert!(cat.contains(sig));
        let (value, load_nanos) = cat.load(sig).unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(0.5));
        assert!(load_nanos > 0);
        // Load time is remembered for OEP statistics.
        assert_eq!(cat.entry(sig).unwrap().measured_load_nanos, Some(load_nanos));
        assert_eq!(cat.estimated_load_nanos(sig), Some(load_nanos));
    }

    #[test]
    fn dirty_epoch_tracks_byte_accounting_changes() {
        let cat = temp_catalog();
        let sig = Signature::of_str("epoch/a");
        let e0 = cat.dirty_epoch();
        assert_eq!(cat.dirty_epoch(), e0, "reads do not advance the epoch");
        cat.store_owned(sig, "alice", "n", 0, &scalar(1.0)).unwrap();
        let e1 = cat.dirty_epoch();
        assert!(e1 > e0, "a store changes byte accounting");
        let _ = cat.used_bytes_for_many(&["alice".to_string()]);
        assert_eq!(cat.dirty_epoch(), e1, "byte reads leave it unchanged");
        assert!(cat.claim_and_pin_if_present(sig, "bob"));
        cat.unpin_many(&[sig]);
        let e2 = cat.dirty_epoch();
        assert!(e2 > e1, "a claim credits the co-owner");
        assert!(!cat.release(sig, "bob").unwrap(), "alice still owns the entry");
        let e3 = cat.dirty_epoch();
        assert!(e3 > e2, "a release debits");
        cat.clear().unwrap();
        assert!(cat.dirty_epoch() > e3, "clear resets accounting");
    }

    #[test]
    fn missing_signature_errors() {
        let cat = temp_catalog();
        let sig = Signature::of_str("never-stored");
        assert!(cat.load(sig).is_err());
        assert_eq!(cat.estimated_load_nanos(sig), None);
        assert!(!cat.release(sig, "anyone").unwrap());
    }

    #[test]
    fn overwrite_replaces_bytes_accounting() {
        let cat = temp_catalog();
        let sig = Signature::of_str("x");
        cat.store(sig, "x", 0, &Value::Scalar(Scalar::Text("small".into()))).unwrap();
        let b1 = cat.total_bytes();
        cat.store(sig, "x", 1, &Value::Scalar(Scalar::Text("much much larger".repeat(10))))
            .unwrap();
        let b2 = cat.total_bytes();
        assert!(b2 > b1);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn release_frees_space_and_files() {
        let cat = temp_catalog();
        let a = Signature::of_str("a");
        let b = Signature::of_str("b");
        cat.store(a, "a", 0, &scalar(1.0)).unwrap();
        cat.store(b, "b", 0, &scalar(2.0)).unwrap();
        assert_eq!(cat.len(), 2);
        let a_file = cat.root().join(&cat.entry(a).unwrap().file);
        assert!(a_file.exists());
        assert!(cat.release(a, SOLO_OWNER).unwrap());
        assert_eq!(cat.len(), 1);
        assert!(!cat.contains(a));
        assert!(!a_file.exists(), "a's file is unlinked");
        assert!(cat.contains(b));
        let bytes_after = cat.total_bytes();
        assert_eq!(bytes_after, cat.entry(b).unwrap().bytes, "only b's bytes remain accounted");
    }

    #[test]
    fn catalog_survives_reopen() {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let sig = Signature::of_str("persistent");
        cat.store_owned(sig, "alice", "node", 3, &scalar(9.0)).unwrap();
        // A store returns with its stage landed and its frame sealed, so
        // the reopen below needs no `commit_staged`.
        assert_eq!(cat.pending_stages(), 0);
        assert!(root.join(format!("{}.hxm", sig.to_hex())).exists());
        drop(cat);

        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(reopened.contains(sig));
        let entry = reopened.entry(sig).unwrap();
        assert!(entry.is_owned_by("alice"), "replayed from the journal, not salvaged");
        assert_eq!(entry.node_name, "node");
        assert_eq!(entry.created_iteration, 3);
        let (value, _, _) = reopened.load_for(sig, "alice").unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn reopen_drops_entries_with_missing_files() {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let sig = Signature::of_str("vanishing");
        cat.store(sig, "node", 0, &scalar(1.0)).unwrap();
        let file = root.join(&cat.entry(sig).unwrap().file);
        drop(cat);
        std::fs::remove_file(file).unwrap();
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(!reopened.contains(sig));
        assert_eq!(reopened.total_bytes(), 0);
    }

    #[test]
    fn clear_removes_everything() {
        let cat = temp_catalog();
        for i in 0..5 {
            cat.store(Signature::of_str(&format!("n{i}")), "n", 0, &scalar(i as f64)).unwrap();
        }
        assert_eq!(cat.len(), 5);
        cat.clear().unwrap();
        assert_eq!(cat.len(), 0);
        assert_eq!(cat.total_bytes(), 0);
        assert!(cat.is_empty());
    }

    #[test]
    fn throttled_store_and_load_meet_bandwidth_floor() {
        let cat = MaterializationCatalog::open_temp(DiskProfile::scaled(10_000_000, 0)).unwrap();
        let big = Value::Scalar(Scalar::Text("x".repeat(100_000)));
        let sig = Signature::of_str("big");
        let (bytes, write_nanos) = cat.store(sig, "big", 0, &big).unwrap();
        // 100 KB at 10 MB/s = 10 ms.
        let floor = bytes * 100; // ns per byte at 10 MB/s
        assert!(write_nanos >= floor, "write {write_nanos} < floor {floor}");
        let (_, load_nanos) = cat.load(sig).unwrap();
        assert!(load_nanos >= floor, "load {load_nanos} < floor {floor}");
    }

    // ----- multi-tenant ownership, hits, quotas -----

    #[test]
    fn owners_accumulate_and_release_deletes_only_when_last_owner_leaves() {
        let cat = temp_catalog();
        let sig = Signature::of_str("shared");
        cat.store_owned(sig, "alice", "n", 0, &scalar(1.0)).unwrap();
        cat.store_owned(sig, "bob", "n", 1, &scalar(1.0)).unwrap();
        let entry = cat.entry(sig).unwrap();
        assert_eq!(entry.owners(), ["alice", "bob"]);
        assert!(cat.used_bytes_for("alice") > 0);
        assert_eq!(cat.used_bytes_for("alice"), cat.used_bytes_for("bob"));

        // A non-owner's release is a no-op.
        assert!(!cat.release(sig, "mallory").unwrap());
        assert!(cat.contains(sig));

        // Alice leaves: artifact must survive for bob.
        assert!(!cat.release(sig, "alice").unwrap());
        assert!(cat.contains(sig), "bob still owns the artifact");
        assert_eq!(cat.used_bytes_for("alice"), 0);
        assert!(cat.root().join(&cat.entry(sig).unwrap().file).exists());

        // Bob leaves: now it is gone, file included.
        let file = cat.entry(sig).unwrap().file.clone();
        assert!(cat.release(sig, "bob").unwrap());
        assert!(!cat.contains(sig));
        assert!(!cat.root().join(file).exists());
        assert_eq!(cat.total_bytes(), 0);
    }

    #[test]
    fn load_for_attributes_self_and_cross_hits() {
        let cat = temp_catalog();
        let sig = Signature::of_str("produced-by-alice");
        cat.store_owned(sig, "alice", "n", 0, &scalar(2.0)).unwrap();

        let (_, _, cross) = cat.load_for(sig, "alice").unwrap();
        assert!(!cross, "own artifact is a self hit");
        let (_, _, cross) = cat.load_for(sig, "bob").unwrap();
        assert!(cross, "other tenant's artifact is a cross hit");

        let alice = cat.owner_stats("alice");
        assert_eq!((alice.self_hits, alice.cross_hits, alice.stores), (1, 0, 1));
        let bob = cat.owner_stats("bob");
        assert_eq!((bob.self_hits, bob.cross_hits), (0, 1));
        assert_eq!(bob.cross_hit_rate(), 1.0);
        assert_eq!(cat.owner_stats("nobody").loads(), 0);
    }

    #[test]
    fn quota_eviction_is_oldest_first_deterministic_and_scoped() {
        let cat = temp_catalog();
        let old = Signature::of_str("old");
        let newer = Signature::of_str("newer");
        let shared = Signature::of_str("shared");
        let other = Signature::of_str("other-tenant");
        cat.store_owned(old, "alice", "old", 0, &scalar(1.0)).unwrap();
        cat.store_owned(newer, "alice", "newer", 5, &scalar(2.0)).unwrap();
        cat.store_owned(shared, "alice", "shared", 1, &scalar(3.0)).unwrap();
        cat.store_owned(shared, "bob", "shared", 1, &scalar(3.0)).unwrap();
        cat.store_owned(other, "bob", "other", 0, &scalar(4.0)).unwrap();

        // Need one artifact's worth: the *oldest sole-owned* goes first.
        let one = cat.entry(old).unwrap().bytes;
        let freed = cat.evict_owned("alice", one, &HashSet::new()).unwrap();
        assert_eq!(freed, one);
        assert!(!cat.contains(old), "oldest sole-owned evicted");
        assert!(cat.contains(newer));
        assert!(cat.contains(shared), "co-owned artifacts are never quota victims");
        assert!(cat.contains(other), "other tenants' artifacts untouched");
        assert_eq!(cat.owner_stats("alice").quota_evictions, 1);

        // Protection wins over need.
        let mut protected = HashSet::new();
        protected.insert(newer);
        let freed = cat.evict_owned("alice", u64::MAX, &protected).unwrap();
        assert_eq!(freed, 0, "only sole-owned candidate is protected");
        assert!(cat.contains(newer));
    }

    // ----- global-pressure eviction, retention, pins -----

    #[test]
    fn global_eviction_scores_by_popularity_then_age() {
        let cat = temp_catalog();
        let old_solo = Signature::of_str("old-solo");
        let new_solo = Signature::of_str("new-solo");
        let popular = Signature::of_str("popular");
        cat.store_owned(old_solo, "alice", "old", 0, &scalar(1.0)).unwrap();
        cat.store_owned(new_solo, "alice", "new", 7, &scalar(2.0)).unwrap();
        cat.store_owned(popular, "alice", "pop", 0, &scalar(3.0)).unwrap();
        assert!(cat.claim_and_pin_if_present(popular, "bob"), "reader claim raises the refcount");
        cat.unpin_many(&[popular]);

        let freed = cat.evict_global("trigger", 1, &HashSet::new()).unwrap();
        assert!(freed > 0);
        assert!(!cat.contains(old_solo), "oldest unpopular entry evicts first");
        assert!(cat.contains(new_solo) && cat.contains(popular));

        cat.evict_global("trigger", 1, &HashSet::new()).unwrap();
        assert!(!cat.contains(new_solo), "unpopular candidates exhaust next");
        assert!(cat.contains(popular), "refcount > 1 retained while alternatives exist");

        cat.evict_global("trigger", u64::MAX, &HashSet::new()).unwrap();
        assert!(!cat.contains(popular), "popular entries still fall under extreme pressure");
        assert_eq!(cat.total_bytes(), 0);

        // Attribution: every owner of a victim is debited; the log names
        // the triggering tenant and the kind.
        assert_eq!(cat.owner_stats("alice").global_evictions, 3);
        assert_eq!(cat.owner_stats("bob").global_evictions, 1);
        let log = cat.eviction_log();
        assert_eq!(log.len(), 3);
        assert!(log
            .iter()
            .all(|r| r.kind == EvictionKind::GlobalPressure && r.trigger == "trigger"));
        assert_eq!(log[0].node_name, "old");
    }

    #[test]
    fn pinned_and_protected_entries_are_never_global_victims() {
        let cat = temp_catalog();
        let pinned = Signature::of_str("pinned");
        let planned = Signature::of_str("planned");
        let victim = Signature::of_str("victim");
        cat.store_owned(pinned, "a", "pinned", 0, &scalar(1.0)).unwrap();
        cat.store_owned(planned, "a", "planned", 0, &scalar(2.0)).unwrap();
        cat.store_owned(victim, "a", "victim", 0, &scalar(3.0)).unwrap();
        cat.pin_many(&[pinned]);
        let protected: HashSet<Signature> = [planned].into_iter().collect();

        cat.evict_global("a", u64::MAX, &protected).unwrap();
        assert!(!cat.contains(victim));
        assert!(cat.contains(pinned), "pinned entry survives unlimited pressure");
        assert!(cat.contains(planned), "protected entry survives unlimited pressure");

        // Pins nest and release; once gone the entry is fair game.
        cat.pin_many(&[pinned]);
        cat.unpin_many(&[pinned]);
        assert_eq!(cat.pinned_count(), 1);
        cat.unpin_many(&[pinned]);
        assert_eq!(cat.pinned_count(), 0);
        cat.evict_global("a", u64::MAX, &protected).unwrap();
        assert!(!cat.contains(pinned));
    }

    #[test]
    fn pins_shield_sole_owned_artifacts_from_sibling_quota_eviction() {
        // Two sessions of ONE tenant: session 1 claims + pins a
        // sole-owned artifact (the claim adds no co-owner — the tenant
        // already owns it — so the pin is the only shield); session 2's
        // quota eviction must not take it.
        let cat = temp_catalog();
        let planned = Signature::of_str("sibling-planned-load");
        let spare = Signature::of_str("spare");
        cat.store_owned(planned, "alice", "p", 0, &scalar(1.0)).unwrap();
        cat.store_owned(spare, "alice", "s", 1, &scalar(2.0)).unwrap();
        assert!(cat.claim_and_pin_if_present(planned, "alice"));
        assert_eq!(cat.entry(planned).unwrap().owners(), ["alice"], "no co-owner added");

        cat.evict_owned("alice", u64::MAX, &HashSet::new()).unwrap();
        assert!(cat.contains(planned), "pinned sole-owned artifact survives quota pressure");
        assert!(!cat.contains(spare), "unpinned sole-owned artifact is still evictable");

        cat.unpin_many(&[planned]);
        cat.evict_owned("alice", u64::MAX, &HashSet::new()).unwrap();
        assert!(!cat.contains(planned), "after the iteration retires it is fair game");
    }

    #[test]
    fn claim_and_pin_is_atomic_and_shields_from_global_eviction() {
        let cat = temp_catalog();
        let sig = Signature::of_str("planned-load");
        cat.store_owned(sig, "alice", "n", 0, &scalar(1.0)).unwrap();
        assert!(cat.claim_and_pin_if_present(sig, "bob"));
        assert_eq!(cat.pinned_count(), 1);
        assert!(cat.entry(sig).unwrap().is_owned_by("bob"), "claim landed");
        assert!(cat.used_bytes_for("bob") > 0, "claim charges the claimant");

        cat.evict_global("alice", u64::MAX, &HashSet::new()).unwrap();
        assert!(cat.contains(sig), "pinned entry survives unlimited global pressure");

        cat.unpin_many(&[sig]);
        cat.evict_global("alice", u64::MAX, &HashSet::new()).unwrap();
        assert!(!cat.contains(sig), "unpinned (though co-owned) entry is evictable");

        // A vanished signature claims nothing and pins nothing.
        assert!(!cat.claim_and_pin_if_present(Signature::of_str("gone"), "bob"));
        assert_eq!(cat.pinned_count(), 0);
    }

    #[test]
    fn eviction_log_is_bounded() {
        let cat = temp_catalog();
        for i in 0..(EVICTION_LOG_CAP + 6) {
            let sig = Signature::of_str(&format!("bulk-{i}"));
            cat.store_owned(sig, "a", "n", i as u64, &scalar(i as f64)).unwrap();
        }
        cat.evict_global("a", u64::MAX, &HashSet::new()).unwrap();
        let log = cat.eviction_log();
        assert_eq!(log.len(), EVICTION_LOG_CAP, "log capped at {EVICTION_LOG_CAP}");
        // The oldest events were dropped: the first retained victim is
        // the 7th in eviction order (6 dropped).
        assert_eq!(cat.owner_stats("a").global_evictions as usize, EVICTION_LOG_CAP + 6);
    }

    #[test]
    fn quota_evictions_are_logged_too() {
        let cat = temp_catalog();
        let sig = Signature::of_str("quota-victim");
        cat.store_owned(sig, "alice", "n", 0, &scalar(1.0)).unwrap();
        cat.evict_owned("alice", u64::MAX, &HashSet::new()).unwrap();
        let log = cat.eviction_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, EvictionKind::Quota);
        assert_eq!(log[0].trigger, "alice");
    }

    #[test]
    fn global_budget_is_settable_and_readable() {
        let cat = temp_catalog();
        assert_eq!(cat.global_budget(), None, "unbounded by default");
        cat.set_global_budget(Some(1 << 20));
        assert_eq!(cat.global_budget(), Some(1 << 20));
        cat.set_global_budget(None);
        assert_eq!(cat.global_budget(), None);
    }

    #[test]
    fn repeat_cross_loads_keep_scoring_cross_hits() {
        // Attribution follows the *writer* set: a tenant that pinned
        // another's artifact still never computed it, so every reuse is
        // a cross hit (and the pin must not flip it to self).
        let cat = temp_catalog();
        let sig = Signature::of_str("alice-made-this");
        cat.store_owned(sig, "alice", "n", 0, &scalar(1.0)).unwrap();
        for _ in 0..3 {
            let (_, _, cross) = cat.load_for(sig, "bob").unwrap();
            assert!(cross);
        }
        assert_eq!(cat.owner_stats("bob").cross_hits, 3);
        assert!(cat.entry(sig).unwrap().is_owned_by("bob"), "pinned after first load");
        assert!(!cat.entry(sig).unwrap().is_written_by("bob"));
    }

    #[test]
    fn claim_shields_artifacts_from_release_and_eviction() {
        let cat = temp_catalog();
        let sig = Signature::of_str("claimed");
        cat.store_owned(sig, "alice", "n", 0, &scalar(5.0)).unwrap();

        // Bob's planner claims the artifact before executing; with the
        // pin dropped, the claim alone must keep it alive.
        assert!(cat.claim_and_pin_if_present(sig, "bob"));
        cat.unpin_many(&[sig]);
        assert!(cat.used_bytes_for("bob") > 0, "claims charge the claimant's quota");

        // Alice deprecates and quota-evicts: the artifact must survive.
        assert!(!cat.release(sig, "alice").unwrap());
        assert!(cat.contains(sig), "bob's claim keeps the artifact alive");
        let freed = cat.evict_owned("alice", u64::MAX, &HashSet::new()).unwrap();
        assert_eq!(freed, 0, "co-owned artifacts are not quota victims");

        // Bob's planned load still works — and is a cross hit.
        let (value, _, cross) = cat.load_for(sig, "bob").unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(5.0));
        assert!(cross);

        // A claim on a vanished signature reports failure (replan cue).
        assert!(!cat.claim_and_pin_if_present(Signature::of_str("never-there"), "bob"));
        // Idempotent re-claim does not double-charge.
        let charged = cat.used_bytes_for("bob");
        assert!(cat.claim_and_pin_if_present(sig, "bob"));
        cat.unpin_many(&[sig]);
        assert_eq!(cat.used_bytes_for("bob"), charged);
    }

    // ----- staged (deferred) commits -----

    #[test]
    fn staged_entry_is_visible_loadable_and_charged_before_the_file_lands() {
        let cat = temp_catalog();
        let sig = Signature::of_str("staged");
        let (bytes, modeled, frame) = cat.stage_owned(sig, "alice", "n", 0, &scalar(4.5)).unwrap();
        assert!(bytes > 0);
        assert_eq!(modeled, cat.disk().write_target(bytes));
        assert!(cat.contains(sig), "index updated at stage time");
        assert_eq!(cat.pending_stages(), 1);
        assert_eq!(cat.used_bytes_for("alice"), bytes, "quota charged at stage time");
        assert!(!cat.root().join(&cat.entry(sig).unwrap().file).exists(), "file deferred");

        // Loads are served from the retained frame meanwhile — cross-hit
        // attribution included.
        let (value, _, cross) = cat.load_for(sig, "bob").unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(4.5));
        assert!(cross);

        let measured = cat.complete_stage(sig, &frame).unwrap();
        assert_eq!(cat.pending_stages(), 0);
        assert!(cat.root().join(&cat.entry(sig).unwrap().file).exists());
        assert_eq!(cat.entry(sig).unwrap().write_nanos, measured);
        cat.commit_staged().unwrap();

        // Durable across reopen once committed.
        let root = cat.root().to_path_buf();
        drop(cat);
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        let (value, _) = reopened.load(sig).unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(4.5));
    }

    /// All journal record payloads, concatenated as a lossy string
    /// (enough to check which signatures the journal references).
    fn journal_text(root: &Path) -> String {
        let scan = journal::scan_file(&root.join("catalog.journal")).unwrap().unwrap();
        scan.records
            .iter()
            .map(|(_, payload)| String::from_utf8_lossy(payload).into_owned())
            .collect()
    }

    #[test]
    fn journal_never_references_unlanded_files() {
        let cat = temp_catalog();
        let durable = Signature::of_str("durable");
        let staged = Signature::of_str("staged");
        cat.store(durable, "d", 0, &scalar(1.0)).unwrap();
        let (_, _, frame) = cat.stage_owned(staged, "", "s", 0, &scalar(2.0)).unwrap();
        // A commit while the stage is pending (any serial store triggers
        // one) must exclude the staged entry.
        cat.store(Signature::of_str("d2"), "d2", 0, &scalar(3.0)).unwrap();
        let text = journal_text(cat.root());
        assert!(!text.contains(&staged.to_hex()), "pending entry leaked into the journal");
        assert!(text.contains(&durable.to_hex()));
        // After completion + commit it appears.
        cat.complete_stage(staged, &frame).unwrap();
        cat.commit_staged().unwrap();
        let text = journal_text(cat.root());
        assert!(text.contains(&staged.to_hex()));
    }

    #[test]
    fn release_of_a_pending_stage_cancels_the_background_write() {
        let cat = temp_catalog();
        let sig = Signature::of_str("cancelled");
        let (_, _, frame) = cat.stage_owned(sig, "alice", "n", 0, &scalar(9.0)).unwrap();
        assert!(cat.release(sig, "alice").unwrap(), "sole owner release removes the entry");
        assert_eq!(cat.pending_stages(), 0, "pending claim dropped with the entry");
        // The write lands late, detects staleness, and leaves no orphan.
        cat.complete_stage(sig, &frame).unwrap();
        assert!(!cat.root().join(format!("{}.hxm", sig.to_hex())).exists());
        assert!(!cat.contains(sig));
    }

    #[test]
    fn release_never_unlinks_a_pinned_entry() {
        // Two sessions of the SAME tenant: session A pins a planned load
        // (the claim adds no co-owner — the tenant already owns it), then
        // session B deprecates the signature. The release must not unlink
        // the artifact out from under A's in-flight iteration; once the
        // pin drops, a later release reclaims it normally.
        let cat = temp_catalog();
        let sig = Signature::of_str("pinned-load");
        cat.store_owned(sig, "t0", "n", 0, &scalar(4.0)).unwrap();
        cat.pin_many(&[sig]);
        assert!(!cat.release(sig, "t0").unwrap(), "pinned release is a no-op");
        assert!(cat.contains(sig), "entry survives");
        let (value, _, _) = cat.load_for(sig, "t0").unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(4.0));
        cat.unpin_many(&[sig]);
        assert!(cat.release(sig, "t0").unwrap(), "unpinned release removes it");
        assert!(!cat.contains(sig));
        assert!(!cat.root().join(format!("{}.hxm", sig.to_hex())).exists());
    }

    #[test]
    fn restage_supersedes_an_inflight_write() {
        let cat = temp_catalog();
        let sig = Signature::of_str("superseded");
        let (_, _, old_frame) = cat.stage_owned(sig, "a", "n", 0, &scalar(1.0)).unwrap();
        let (_, _, new_frame) = cat.stage_owned(sig, "a", "n", 1, &scalar(1.0)).unwrap();
        // The old write completes late: it must not clear the newer stage.
        cat.complete_stage(sig, &old_frame).unwrap();
        assert_eq!(cat.pending_stages(), 1, "newer stage still pending");
        cat.complete_stage(sig, &new_frame).unwrap();
        assert_eq!(cat.pending_stages(), 0);
        let (value, _) = cat.load(sig).unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn staged_then_crashed_reopen_is_consistent() {
        // Crash windows, in order of the staged protocol:
        //  (1) staged, file never landed, frame never sealed;
        //  (2) file landed + frame sealed, journal never fsynced.
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let kept = Signature::of_str("kept");
        cat.store(kept, "k", 0, &scalar(1.0)).unwrap();

        // Window 1: stage only. Dropping the catalog simulates the kill —
        // nothing of the stage is on disk.
        let never_landed = Signature::of_str("never-landed");
        let (_, _, _frame) = cat.stage_owned(never_landed, "", "n", 0, &scalar(2.0)).unwrap();

        // Window 2: stage + complete, no commit_staged.
        let landed = Signature::of_str("landed-uncommitted");
        let (_, _, frame) = cat.stage_owned(landed, "", "n", 0, &scalar(3.0)).unwrap();
        cat.complete_stage(landed, &frame).unwrap();
        drop(cat);

        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(reopened.contains(kept), "durable entries survive");
        assert!(!reopened.contains(never_landed), "window-1 stage is simply absent");
        assert!(
            reopened.contains(landed),
            "window-2 stage survives: its file is durable and its frame was sealed \
             (exactly what a serial engine crash after the store would leave)"
        );
        let (value, _) = reopened.load(landed).unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(3.0));
        // And every referenced file exists.
        for entry in reopened.entries() {
            assert!(root.join(&entry.file).exists());
        }
    }

    // ----- crash consistency -----

    #[test]
    fn orphaned_artifact_temp_files_are_swept_on_open() {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let sig = Signature::of_str("kept");
        cat.store(sig, "n", 0, &scalar(1.0)).unwrap();
        drop(cat);
        // Simulate a crash mid-artifact-write: an orphaned temp next to
        // real artifacts.
        let orphan = root.join(format!("{}.hxm.tmp-99", Signature::of_str("dead").to_hex()));
        std::fs::write(&orphan, b"half-written").unwrap();

        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(!orphan.exists(), "orphaned artifact temp swept on open");
        assert!(reopened.contains(sig), "real artifacts untouched");
    }

    #[test]
    fn torn_journal_tail_is_truncated_and_prefix_replayed() {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let kept = Signature::of_str("kept");
        cat.store(kept, "n", 2, &scalar(1.5)).unwrap();
        drop(cat);
        // Crash mid-append: garbage bytes at the journal tail.
        let journal = root.join("catalog.journal");
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.extend_from_slice(b"HXF3\x03half-a-frame");
        std::fs::write(&journal, &bytes).unwrap();

        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(reopened.contains(kept), "valid prefix replayed");
        assert_eq!(reopened.entry(kept).unwrap().created_iteration, 2, "metadata intact");
        let stats = reopened.recovery_stats();
        assert!(stats.recovered);
        assert!(stats.journal_tail_bytes > 0, "torn tail measured");
        assert!(stats.journal_rewritten, "damaged journal compacted to a fresh snapshot");
        // The repaired journal reopens clean.
        drop(reopened);
        let again = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(again.contains(kept));
        assert!(!again.recovery_stats().recovered, "second reopen is healthy");
    }

    #[test]
    fn fresh_open_writes_nothing_and_the_first_store_opens_the_journal() {
        let listing = |root: &Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(root)
                .unwrap()
                .map(|d| d.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        assert!(listing(&root).is_empty(), "a fresh open creates no file");
        assert!(!cat.recovery_stats().recovered);
        drop(cat);
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(!reopened.recovery_stats().recovered, "the reopen is fresh again");
        assert!(listing(&root).is_empty());

        // The first store's commit opens the journal with the same empty
        // snapshot every chain starts from.
        let sig = Signature::of_str("first");
        reopened.store(sig, "n", 0, &scalar(1.0)).unwrap();
        drop(reopened);
        let artifact_path = root.join(format!("{}.hxm", sig.to_hex()));
        let artifact = std::fs::read(&artifact_path).unwrap();
        let journal = root.join("catalog.journal");
        let bytes = std::fs::read(&journal).unwrap();
        let scan = journal::scan_bytes(&bytes);
        let kinds: Vec<FrameKind> = scan.records.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, [FrameKind::Snapshot, FrameKind::Upsert]);
        assert_eq!(scan.records[0].1, br#"{"format_version":3,"entries":[]}"#);

        // Cut anywhere in that opening snapshot frame: the reopen is
        // empty and the now-unreferenced artifact is swept.
        let snapshot_end = scan.frame_ends[0] as usize;
        for cut in 0..=snapshot_end {
            std::fs::write(&journal, &bytes[..cut]).unwrap();
            std::fs::write(&artifact_path, &artifact).unwrap();
            let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
            assert!(reopened.entries().is_empty(), "cut {cut}");
            assert!(!artifact_path.exists(), "cut {cut}: unreferenced artifact swept");
            let stats = reopened.recovery_stats();
            assert!(stats.recovered, "cut {cut}");
            assert_eq!(stats.swept_files, 1, "cut {cut}");
            let torn = if cut < snapshot_end { cut as u64 } else { 0 };
            assert_eq!(stats.journal_tail_bytes, torn, "cut {cut}");
            assert_eq!(stats.journal_stop.is_some(), torn > 0, "cut {cut}");
            assert_eq!(stats.journal_rewritten, torn > 0, "cut {cut}");
            let whole = u64::from(cut == snapshot_end);
            assert_eq!(stats.journal_frames_replayed, whole, "cut {cut}");
        }
        // A journal that never reached the disk reopens as a fresh directory.
        std::fs::remove_file(&journal).unwrap();
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(reopened.entries().is_empty());
        assert!(!reopened.recovery_stats().recovered);
    }

    #[test]
    fn mid_journal_bit_rot_replays_exactly_the_valid_prefix() {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let first = Signature::of_str("first");
        let second = Signature::of_str("second");
        cat.store(first, "a", 0, &scalar(1.0)).unwrap();
        let boundary = {
            let scan = journal::scan_file(&root.join("catalog.journal")).unwrap().unwrap();
            scan.valid_bytes as usize
        };
        cat.store(second, "b", 1, &scalar(2.0)).unwrap();
        drop(cat);
        // Flip a bit inside the *second* store's frame.
        let journal = root.join("catalog.journal");
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes[boundary + 20] ^= 0x40;
        std::fs::write(&journal, &bytes).unwrap();

        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(reopened.contains(first), "frames before the damage replay");
        assert!(!reopened.contains(second), "frames at/after the damage do not");
        let stats = reopened.recovery_stats();
        assert!(stats.recovered);
        assert!(stats.journal_stop.is_some(), "the stop reason is surfaced");
        // The second store's artifact file is now unreferenced: swept.
        assert!(!root.join(format!("{}.hxm", second.to_hex())).exists());
        assert!(stats.swept_files >= 1);
    }

    /// A catalog that stored one artifact under `what`, then lost its
    /// journal (a crash before the first commit, or manual deletion); the
    /// artifact file is overwritten with `bytes`. Returns the root, the
    /// signature and the artifact path.
    fn lost_journal_with_artifact(what: &str, bytes: &[u8]) -> (PathBuf, Signature, PathBuf) {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let sig = Signature::of_str(what);
        cat.store(sig, "n", 0, &scalar(3.25)).unwrap();
        drop(cat);
        std::fs::remove_file(root.join("catalog.journal")).unwrap();
        let file = root.join(format!("{}.hxm", sig.to_hex()));
        std::fs::write(&file, bytes).unwrap();
        (root, sig, file)
    }

    #[test]
    fn lost_journal_with_current_marker_salvages_by_artifact_scan() {
        // With no journal, an artifact whose frame header carries the
        // current format version is the marker that proves current-format
        // keying: the scan resurrects it.
        let (root, sig, _) = lost_journal_with_artifact("scanned", &encode_value(&scalar(3.25)));
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(reopened.contains(sig), "artifact scan resurrects the entry");
        let (value, _) = reopened.load(sig).unwrap();
        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(3.25));
        assert_eq!(reopened.entry(sig).unwrap().node_name, "(recovered)");
        let stats = reopened.recovery_stats();
        assert!(stats.salvaged_by_scan);
        assert!(stats.journal_rewritten);
        assert_eq!(stats.migrated_from, None);
    }

    #[test]
    fn unmarked_artifacts_are_swept_not_trusted() {
        // Artifact files with no journal and no current-format frame
        // header predate provenance keying (or are not artifacts at all):
        // the salvage scan must NOT resurrect them under the current
        // scheme. They are swept (recomputable by definition).
        let rows: [(&str, &[u8]); 3] = [
            ("pre-journal HXM1", b"HXM1\x02legacy artifact bytes"),
            ("garbage", b"not a frame at all"),
            ("3-byte file", b"HXF"),
        ];
        for (what, bytes) in rows {
            let (root, sig, file) = lost_journal_with_artifact(what, bytes);
            let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
            assert!(reopened.is_empty(), "{what} must not be trusted");
            assert!(!file.exists(), "{what} swept");
            let stats = reopened.recovery_stats();
            assert!(stats.migrated_from.is_some_and(|v| v <= 2), "{what}");
            assert_eq!(stats.swept_files, 1, "{what}");
            assert!(!stats.salvaged_by_scan, "{what}");
            // A current-format crash in the same directory salvages
            // normally from here on.
            reopened.store(sig, "n", 0, &scalar(2.0)).unwrap();
            drop(reopened);
            std::fs::remove_file(root.join("catalog.journal")).unwrap();
            let again = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
            assert!(again.contains(sig), "{what}: current artifact still salvages");
            assert!(again.recovery_stats().salvaged_by_scan, "{what}");
        }
    }

    #[test]
    fn undeletable_sweep_target_is_reported_not_swallowed() {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let kept = Signature::of_str("kept");
        cat.store(kept, "n", 0, &scalar(1.0)).unwrap();
        drop(cat);
        // An unreferenced artifact that `remove_file` cannot delete (it
        // is a directory) — the closest portable stand-in for a
        // permission failure.
        let stuck = root.join(format!("{}.hxm", Signature::of_str("stuck").to_hex()));
        std::fs::create_dir(&stuck).unwrap();

        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(reopened.contains(kept), "open still succeeds");
        let stats = reopened.recovery_stats();
        assert_eq!(stats.sweep_failures.len(), 1, "failure surfaced: {stats:?}");
        assert!(stats.sweep_failures[0].file.ends_with(".hxm"));
        assert!(!stats.sweep_failures[0].error.is_empty());
        assert!(stats.stranded_bytes > 0, "undeletable bytes stay visible");
        assert!(stuck.exists(), "the stuck file is still there — but reported");
        std::fs::remove_dir(&stuck).unwrap();
    }

    #[test]
    fn recovery_stats_reconcile_disk_against_accounting() {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        cat.store(Signature::of_str("a"), "a", 0, &scalar(1.0)).unwrap();
        cat.store(Signature::of_str("b"), "b", 0, &scalar(2.0)).unwrap();
        drop(cat);
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        let stats = reopened.recovery_stats();
        assert_eq!(stats.accounted_bytes_after_open, reopened.total_bytes());
        assert!(
            stats.disk_bytes_after_open >= stats.accounted_bytes_after_open,
            "disk holds at least the accounted artifact bytes"
        );
        // The overhead is exactly the journal (nothing stranded).
        let overhead = stats.disk_bytes_after_open - stats.accounted_bytes_after_open;
        let journal = std::fs::metadata(root.join("catalog.journal")).unwrap().len();
        assert_eq!(overhead, journal);
        assert_eq!(stats.stranded_bytes, 0);
    }

    #[test]
    fn long_journals_compact_to_a_snapshot() {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let sig = Signature::of_str("churn");
        // Many commits against few live entries: the journal must not
        // grow without bound.
        for i in 0..300 {
            cat.store(sig, "n", i, &scalar(i as f64)).unwrap();
        }
        let scan = journal::scan_file(&root.join("catalog.journal")).unwrap().unwrap();
        let live_entries = 1;
        assert!(
            scan.frames <= 4 * live_entries + MaterializationCatalog::COMPACT_SLACK + 1,
            "journal compacted during churn (frames = {})",
            scan.frames
        );
        assert_eq!(scan.stop, None);
        // State is intact after all that churn.
        drop(cat);
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.entry(sig).unwrap().created_iteration, 299);
    }

    // ----- concurrency -----

    #[test]
    fn concurrent_store_load_purge_stress() {
        let cat = temp_catalog();
        let threads = 8usize;
        let per_thread = 24usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cat = &cat;
                scope.spawn(move || {
                    let owner = format!("tenant-{t}");
                    for i in 0..per_thread {
                        let sig = Signature::of_str(&format!("s-{t}-{i}"));
                        cat.store_owned(sig, &owner, "n", i as u64, &scalar(i as f64)).unwrap();
                        let (value, _, cross) = cat.load_for(sig, &owner).unwrap();
                        assert_eq!(value.as_scalar().unwrap().as_f64(), Some(i as f64));
                        assert!(!cross);
                        // Everyone also hammers a shared signature.
                        let shared = Signature::of_str("shared-hotspot");
                        cat.store_owned(shared, &owner, "hot", 0, &scalar(42.0)).unwrap();
                        let (hot, _, _) = cat.load_for(shared, &owner).unwrap();
                        assert_eq!(hot.as_scalar().unwrap().as_f64(), Some(42.0));
                        if i % 3 == 0 {
                            cat.release(sig, &owner).unwrap();
                        }
                    }
                });
            }
        });
        // Deterministic survivor count: each thread released ceil(24/3)=8.
        let expected = threads * (per_thread - per_thread.div_ceil(3)) + 1;
        assert_eq!(cat.len(), expected);
        // Accounting is exact after the melee.
        let total: u64 = cat.entries().iter().map(|e| e.bytes).sum();
        assert_eq!(cat.total_bytes(), total);
        // And the journal on disk replays to a consistent state.
        let root = cat.root().to_path_buf();
        drop(cat);
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert_eq!(reopened.len(), expected);
        assert_eq!(reopened.total_bytes(), total);
    }

    #[test]
    fn journal_entries_without_owner_fields_still_parse() {
        // Optional metadata fields (owners/writers) may be absent in
        // frames written by builds that predate them; replay must default
        // them to "unowned", and solo sessions can still deprecate such
        // entries.
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        let sig = Signature::of_str("legacy");
        cat.store(sig, "n", 1, &scalar(6.0)).unwrap();
        let bytes = cat.entry(sig).unwrap().bytes;
        drop(cat);
        // Rewrite the journal with a snapshot whose entry omits the
        // optional fields entirely.
        let payload = format!(
            r#"{{"format_version":{},"entries":[{{"signature":"{hex}","file":"{hex}.hxm","bytes":{bytes},"node_name":"n","created_iteration":1,"write_nanos":0,"measured_load_nanos":null}}]}}"#,
            MaterializationCatalog::FORMAT_VERSION,
            hex = sig.to_hex(),
        );
        JournalWriter::rewrite(
            &root.join("catalog.journal"),
            [(FrameKind::Snapshot, payload.as_bytes())],
        )
        .unwrap();

        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        assert!(reopened.contains(sig));
        assert!(reopened.entry(sig).unwrap().owners().is_empty(), "legacy entry is unowned");
        // Solo sessions can still deprecate legacy entries.
        assert!(reopened.release(sig, SOLO_OWNER).unwrap());
        assert!(!reopened.contains(sig));
    }

    // ----- durable format versioning -----

    #[test]
    fn journal_snapshot_records_the_current_format_version() {
        let cat = temp_catalog();
        cat.store(Signature::of_str("v"), "n", 0, &scalar(1.0)).unwrap();
        let scan = journal::scan_file(&cat.root().join("catalog.journal")).unwrap().unwrap();
        assert_eq!(scan.records[0].0, FrameKind::Snapshot, "journal opens with a snapshot");
        let text = String::from_utf8_lossy(&scan.records[0].1).into_owned();
        assert!(
            text.contains(&format!(
                "\"format_version\":{}",
                MaterializationCatalog::FORMAT_VERSION
            )),
            "snapshot must name its keying format: {text}"
        );
    }

    #[test]
    fn newer_format_catalogs_are_rejected_with_a_clear_error() {
        let cat = temp_catalog();
        let root = cat.root().to_path_buf();
        cat.store(Signature::of_str("future"), "n", 0, &scalar(1.0)).unwrap();
        drop(cat);
        let newer = MaterializationCatalog::FORMAT_VERSION + 1;

        // A newer snapshot format version inside a current-format frame.
        // (A newer journal frame header is refused too: see
        // `tests/storage_corruption.rs`. A newer artifact frame header is
        // checked below.)
        let payload = format!(r#"{{"format_version":{newer},"entries":[]}}"#);
        JournalWriter::rewrite(
            &root.join("catalog.journal"),
            [(FrameKind::Snapshot, payload.as_bytes())],
        )
        .unwrap();
        let err = match MaterializationCatalog::open(&root, DiskProfile::unthrottled()) {
            Err(err) => format!("{err}"),
            Ok(_) => panic!("newer-format journal must be refused"),
        };
        assert!(err.contains("newer"), "error must explain the refusal: {err}");
        // Nothing was destroyed: the future build's data is intact.
        assert!(root.join(format!("{}.hxm", Signature::of_str("future").to_hex())).exists());

        // With no journal, an artifact with a newer frame header refuses
        // the open and is left intact.
        let mut bytes = encode_value(&scalar(3.25));
        bytes[4] = frame::FORMAT_VERSION + 1;
        let (root, _, file) = lost_journal_with_artifact("newer frame", &bytes);
        let err = match MaterializationCatalog::open(&root, DiskProfile::unthrottled()) {
            Err(err) => format!("{err}"),
            Ok(_) => panic!("newer artifact frame must be refused"),
        };
        assert!(err.contains("newer"), "error must explain the refusal: {err}");
        assert_eq!(std::fs::read(&file).unwrap(), bytes, "newer artifact left intact");
    }
}
