//! The persistent run journal: append-only, self-describing JSONL
//! provenance for every observed run.
//!
//! Every run observed with `--metrics`, `--trace` or `--alloc` appends
//! exactly one [`JournalRecord`] line, covering the whole run, to
//! `<out>/journal.jsonl` (`results/` by default): run identity (id,
//! binary, command line, timestamp), workload coordinates
//! (domain/scale/seed/threads), the cache stamps it touched with their
//! hit/miss outcomes, wall-clock, and a compact snapshot of every
//! counter, gauge, histogram and span — histograms and span durations
//! reduced to count/sum plus p50/p95/p99 via [`Hist::quantile`]. The
//! journal is the only per-run record a run leaves behind, and `dsa obs
//! {runs,diff,gc}` are the only way to query it: the durable
//! record of exploration the paper's method calls for. (`dsa obs trace`
//! runs its own traced workload and writes a trace file instead.)
//!
//! **Durability rules.** Appends are line-atomic (one `write` of one
//! `\n`-terminated line in append mode); a crash can only ever corrupt
//! the final line, and [`read_file`] tolerates that by skipping
//! unparseable lines (reporting how many). When the file would exceed
//! the size cap the current journal rotates to `journal.1.jsonl`
//! (replacing the previous rotation) and a fresh file starts — two
//! generations bound disk use while keeping a deep history.

use crate::json::{self, Json};
use crate::metrics::{metrics_enabled, Hist};
use crate::report::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The journal file name under the results directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// The rotated (previous-generation) journal file name.
pub const JOURNAL_ROTATED: &str = "journal.1.jsonl";
/// Default rotation threshold: 1 MiB (~500 records of a traced smoke
/// `experiments` run, ~2 KB each).
pub const DEFAULT_MAX_BYTES: u64 = 1 << 20;

/// Run identity and workload coordinates, supplied by the binary (the
/// timestamp is passed in, not sampled here, so callers control clock
/// reads and tests stay deterministic).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMeta {
    /// Unique run id, e.g. `experiments-smoke-1754640000000-4242`.
    pub run_id: String,
    /// Binary name (`dsa` or `experiments`).
    pub binary: String,
    /// The command line (program name omitted), space-joined.
    pub command: String,
    /// Unix milliseconds at process start.
    pub timestamp_ms: u64,
    /// Experiment scale name, when one applies.
    pub scale: Option<String>,
    /// Domain name, when the run targets a single domain.
    pub domain: Option<String>,
    /// Master seed, when one applies.
    pub seed: Option<u64>,
    /// Resolved worker-thread count.
    pub threads: usize,
}

/// A span aggregate reduced to the journal's compact form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanSummary {
    /// Invocation count.
    pub count: u64,
    /// Total (wall) nanoseconds across invocations.
    pub total_ns: u64,
    /// Self nanoseconds (total minus children).
    pub self_ns: u64,
    /// Median invocation duration (ns).
    pub p50: u64,
    /// 95th-percentile invocation duration (ns).
    pub p95: u64,
    /// 99th-percentile invocation duration (ns).
    pub p99: u64,
}

/// A histogram reduced to the journal's compact form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Median observation.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistSummary {
    fn of(h: &Hist) -> Self {
        let (p50, p95, p99) = h.percentiles();
        Self {
            count: h.count,
            sum: h.sum,
            p50,
            p95,
            p99,
        }
    }
}

/// The memory telemetry of one run, reduced to the journal's compact
/// form. Records without it parse as `mem: None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemBlock {
    /// Peak resident set size in bytes (`mem.rss_peak_bytes`; 0 when
    /// procfs was unavailable).
    pub rss_peak_bytes: u64,
    /// Total heap allocations counted (`mem.alloc.count`; 0 unless the
    /// run used `--alloc`).
    pub alloc_count: u64,
    /// Total heap bytes requested (`mem.alloc.bytes`).
    pub alloc_bytes: u64,
}

impl MemBlock {
    /// Collects the memory block from a snapshot's `mem.*` instruments.
    /// Returns `None` when the run recorded no memory telemetry at all
    /// (metrics off, or a pre-memory-dimension snapshot).
    #[must_use]
    pub fn from_registries(snap: &Snapshot) -> Option<Self> {
        let gauge = |key: &str| snap.gauges.get(key).map(|v| *v as u64);
        let counter = |key: &str| snap.counters.get(key).copied();
        let rss = gauge("mem.rss_peak_bytes");
        let count = counter("mem.alloc.count");
        let bytes = counter("mem.alloc.bytes");
        if rss.is_none() && count.is_none() && bytes.is_none() {
            return None;
        }
        Some(Self {
            rss_peak_bytes: rss.unwrap_or(0),
            alloc_count: count.unwrap_or(0),
            alloc_bytes: bytes.unwrap_or(0),
        })
    }
}

/// One journal line: a run's full provenance record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JournalRecord {
    /// Run identity and coordinates.
    pub meta: RunMeta,
    /// Wall-clock of the run, in milliseconds.
    pub wall_ms: u64,
    /// Memory telemetry, when the run recorded any.
    pub mem: Option<MemBlock>,
    /// Cache stamps touched: `(file name, outcome)` in touch order,
    /// where outcome is `hit`, `store`, or `miss.<reason>`.
    pub cache: Vec<(String, String)>,
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub hists: BTreeMap<String, HistSummary>,
    /// Span summaries.
    pub spans: BTreeMap<String, SpanSummary>,
}

// ---- cache-touch provenance ------------------------------------------------

/// More cache events than any sane run produces; beyond this the list
/// stops growing (and `obs.cache_events_dropped` counts the overflow).
const CACHE_EVENT_CAP: usize = 512;

static CACHE_EVENTS: Mutex<Vec<(Box<str>, Box<str>)>> = Mutex::new(Vec::new());

/// Records that a cache file was touched with the given outcome (`hit`,
/// `store`, `miss.<reason>`) for the journal's provenance list. A no-op
/// unless metrics are enabled. Called by `dsa_core::cache`.
pub fn note_cache_event(file: &str, outcome: &str) {
    if !metrics_enabled() {
        return;
    }
    let mut events = CACHE_EVENTS.lock().expect("cache event list poisoned");
    if events.len() >= CACHE_EVENT_CAP {
        drop(events);
        crate::metrics::add("obs.cache_events_dropped", 1);
        return;
    }
    events.push((file.into(), outcome.into()));
}

/// The cache events recorded since the last [`crate::reset`].
#[must_use]
pub fn cache_events() -> Vec<(String, String)> {
    CACHE_EVENTS
        .lock()
        .expect("cache event list poisoned")
        .iter()
        .map(|(f, o)| (f.to_string(), o.to_string()))
        .collect()
}

pub(crate) fn reset_cache_events() {
    CACHE_EVENTS
        .lock()
        .expect("cache event list poisoned")
        .clear();
}

// ---- record construction & JSON codec --------------------------------------

fn opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json::escape(s)),
        None => "null".to_string(),
    }
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

impl JournalRecord {
    /// Builds a record from a registry snapshot plus the run metadata,
    /// folding in the cache events recorded since the last reset.
    #[must_use]
    pub fn from_snapshot(meta: RunMeta, wall_ms: u64, snap: &Snapshot) -> Self {
        let spans = snap
            .spans
            .iter()
            .map(|(name, s)| {
                let (p50, p95, p99) = s.dur.percentiles();
                (
                    name.clone(),
                    SpanSummary {
                        count: s.dur.count,
                        total_ns: s.dur.sum,
                        self_ns: s.self_ns,
                        p50,
                        p95,
                        p99,
                    },
                )
            })
            .collect();
        Self {
            meta,
            wall_ms,
            mem: MemBlock::from_registries(snap),
            cache: cache_events(),
            counters: snap.counters.clone(),
            gauges: snap.gauges.clone(),
            hists: snap
                .hists
                .iter()
                .map(|(name, h)| (name.clone(), HistSummary::of(h)))
                .collect(),
            spans,
        }
    }

    /// Serializes the record as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"v\":2,\"run\":\"{}\",\"bin\":\"{}\",\"cmd\":\"{}\",\"ts_ms\":{},\
             \"scale\":{},\"domain\":{},\"seed\":{},\"threads\":{},\"wall_ms\":{}",
            json::escape(&self.meta.run_id),
            json::escape(&self.meta.binary),
            json::escape(&self.meta.command),
            self.meta.timestamp_ms,
            opt_str(&self.meta.scale),
            opt_str(&self.meta.domain),
            opt_u64(self.meta.seed),
            self.meta.threads,
            self.wall_ms
        );
        if let Some(mem) = &self.mem {
            let _ = write!(
                out,
                ",\"mem\":{{\"rss_peak_bytes\":{},\"alloc_count\":{},\"alloc_bytes\":{}}}",
                mem.rss_peak_bytes, mem.alloc_count, mem.alloc_bytes
            );
        }
        out.push_str(",\"cache\":[");
        for (i, (file, outcome)) in self.cache.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":\"{}\",\"outcome\":\"{}\"}}",
                json::escape(file),
                json::escape(outcome)
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json::escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json::escape(name), json::num(*v));
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json::escape(name),
                h.count,
                h.sum,
                h.p50,
                h.p95,
                h.p99
            );
        }
        out.push_str("},\"spans\":{");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\
                 \"p50\":{},\"p95\":{},\"p99\":{}}}",
                json::escape(name),
                s.count,
                s.total_ns,
                s.self_ns,
                s.p50,
                s.p95,
                s.p99
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses one journal line of schema version 1 or 2. Version 2
    /// dropped the `mem` block's arena-footprint key; a version 1 line's
    /// is ignored, so a journal holding both versions lists, diffs and
    /// compacts as one.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON, an unknown schema version, or
    /// missing/ill-typed required fields.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let doc = json::parse(line)?;
        let version = doc.get("v").and_then(Json::as_u64).ok_or("no version")?;
        if !matches!(version, 1 | 2) {
            return Err(format!("unknown journal schema version {version}"));
        }
        let req_str = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let req_u64 = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let opt_string = |key: &str| -> Option<String> {
            doc.get(key).and_then(Json::as_str).map(str::to_string)
        };
        let meta = RunMeta {
            run_id: req_str("run")?,
            binary: req_str("bin")?,
            command: req_str("cmd")?,
            timestamp_ms: req_u64("ts_ms")?,
            scale: opt_string("scale"),
            domain: opt_string("domain"),
            seed: doc.get("seed").and_then(Json::as_u64),
            threads: usize::try_from(req_u64("threads")?).map_err(|_| "threads out of range")?,
        };
        let mut record = Self {
            meta,
            wall_ms: req_u64("wall_ms")?,
            ..Self::default()
        };
        if let Some(mem) = doc.get("mem") {
            let field = |key: &str| -> Result<u64, String> {
                mem.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("mem: missing {key}"))
            };
            record.mem = Some(MemBlock {
                rss_peak_bytes: field("rss_peak_bytes")?,
                alloc_count: field("alloc_count")?,
                alloc_bytes: field("alloc_bytes")?,
            });
        }
        for item in doc.get("cache").and_then(Json::as_arr).unwrap_or(&[]) {
            let file = item
                .get("file")
                .and_then(Json::as_str)
                .ok_or("cache item: no file")?;
            let outcome = item
                .get("outcome")
                .and_then(Json::as_str)
                .ok_or("cache item: no outcome")?;
            record.cache.push((file.to_string(), outcome.to_string()));
        }
        for (name, v) in doc.get("counters").and_then(Json::as_obj).unwrap_or(&[]) {
            record.counters.insert(
                name.clone(),
                v.as_u64()
                    .ok_or_else(|| format!("counter {name}: not a u64"))?,
            );
        }
        for (name, v) in doc.get("gauges").and_then(Json::as_obj).unwrap_or(&[]) {
            record.gauges.insert(
                name.clone(),
                v.as_f64()
                    .ok_or_else(|| format!("gauge {name}: not a number"))?,
            );
        }
        let field = |v: &Json, name: &str, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing {key}"))
        };
        for (name, v) in doc.get("hists").and_then(Json::as_obj).unwrap_or(&[]) {
            record.hists.insert(
                name.clone(),
                HistSummary {
                    count: field(v, name, "count")?,
                    sum: field(v, name, "sum")?,
                    p50: field(v, name, "p50")?,
                    p95: field(v, name, "p95")?,
                    p99: field(v, name, "p99")?,
                },
            );
        }
        for (name, v) in doc.get("spans").and_then(Json::as_obj).unwrap_or(&[]) {
            record.spans.insert(
                name.clone(),
                SpanSummary {
                    count: field(v, name, "count")?,
                    total_ns: field(v, name, "total_ns")?,
                    self_ns: field(v, name, "self_ns")?,
                    p50: field(v, name, "p50")?,
                    p95: field(v, name, "p95")?,
                    p99: field(v, name, "p99")?,
                },
            );
        }
        Ok(record)
    }

    /// One human-readable summary line (for `dsa obs runs`).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "{:<40} {} {:<28} wall {:>7}ms  {} spans, {} cache touches",
            self.meta.run_id,
            self.meta.binary,
            self.meta.command.chars().take(28).collect::<String>(),
            self.wall_ms,
            self.spans.len(),
            self.cache.len()
        )
    }
}

/// The `dsa obs runs --json` document: a summary object per journal
/// record plus the count of unparseable lines skipped.
#[must_use]
pub fn runs_json(records: &[JournalRecord], skipped: usize) -> String {
    let mut out = format!(
        "{{\"count\":{},\"skipped\":{skipped},\"runs\":[",
        records.len()
    );
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"run\":\"{}\",\"bin\":\"{}\",\"cmd\":\"{}\",\"ts_ms\":{},\"scale\":{},\
             \"wall_ms\":{},\"spans\":{},\"cache_touches\":{}}}",
            json::escape(&r.meta.run_id),
            json::escape(&r.meta.binary),
            json::escape(&r.meta.command),
            r.meta.timestamp_ms,
            opt_str(&r.meta.scale),
            r.wall_ms,
            r.spans.len(),
            r.cache.len()
        );
    }
    out.push_str("]}\n");
    out
}

/// The record schema as a structural signature: top-level keys in wire
/// order plus the per-entry keys of the nested maps. Pinned by a
/// snapshot test so accidental schema drift (a renamed or re-typed
/// field) fails loudly — bump `v` and the pin together when changing
/// the schema deliberately.
///
/// # Errors
///
/// Returns an error when `line` is not a parseable journal line.
pub fn schema_of(line: &str) -> Result<String, String> {
    let doc = json::parse(line)?;
    let obj = doc.as_obj().ok_or("journal line is not an object")?;
    let mut out = String::new();
    for (key, value) in obj {
        match key.as_str() {
            "cache" => {
                let keys = value
                    .as_arr()
                    .and_then(|a| a.first())
                    .and_then(Json::as_obj)
                    .map_or_else(String::new, |m| {
                        m.iter()
                            .map(|(k, _)| k.as_str())
                            .collect::<Vec<_>>()
                            .join(",")
                    });
                let _ = writeln!(out, "cache[]{{{keys}}}");
            }
            "hists" | "spans" => {
                let keys = value
                    .as_obj()
                    .and_then(|m| m.first())
                    .and_then(|(_, v)| v.as_obj())
                    .map_or_else(String::new, |m| {
                        m.iter()
                            .map(|(k, _)| k.as_str())
                            .collect::<Vec<_>>()
                            .join(",")
                    });
                let _ = writeln!(out, "{key}{{name -> {{{keys}}}}}");
            }
            "counters" | "gauges" => {
                let _ = writeln!(out, "{key}{{name -> num}}");
            }
            "mem" => {
                let keys = value.as_obj().map_or_else(String::new, |m| {
                    m.iter()
                        .map(|(k, _)| k.as_str())
                        .collect::<Vec<_>>()
                        .join(",")
                });
                let _ = writeln!(out, "mem{{{keys}}}");
            }
            _ => {
                let kind = match value {
                    Json::Null => "null",
                    Json::Bool(_) => "bool",
                    Json::Num(_) => "num",
                    Json::Str(_) => "str",
                    Json::Arr(_) => "arr",
                    Json::Obj(_) => "obj",
                };
                let _ = writeln!(out, "{key}:{kind}");
            }
        }
    }
    Ok(out)
}

// ---- file I/O --------------------------------------------------------------

/// Appends one record to `dir/journal.jsonl`, rotating the file to
/// `journal.1.jsonl` first when it would exceed `max_bytes`. Returns the
/// journal path.
///
/// # Errors
///
/// Returns an error when the directory, rotation or append fails.
pub fn append(dir: &Path, record: &JournalRecord, max_bytes: u64) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(JOURNAL_FILE);
    let mut line = record.to_json_line();
    line.push('\n');
    let current = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    if current > 0 && current + line.len() as u64 > max_bytes {
        let rotated = dir.join(JOURNAL_ROTATED);
        std::fs::rename(&path, &rotated)
            .map_err(|e| format!("rotating {}: {e}", path.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    file.write_all(line.as_bytes())
        .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    Ok(path)
}

/// Reads one journal file: the parsed records in file order plus the
/// number of lines skipped as unparseable (a crash-truncated tail, a
/// foreign schema version — tolerated, not fatal). A missing file reads
/// as empty.
///
/// # Errors
///
/// Returns an error when the file exists but cannot be read.
pub fn read_file(path: &Path) -> Result<(Vec<JournalRecord>, usize), String> {
    if !path.exists() {
        return Ok((Vec::new(), 0));
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match JournalRecord::from_json_line(line) {
            Ok(r) => records.push(r),
            Err(_) => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// Reads the full journal under `dir`: the rotated generation first
/// (when present), then the current file — so records come out in
/// chronological order across the rotation boundary.
///
/// # Errors
///
/// Returns an error when either file exists but cannot be read.
pub fn read_all(dir: &Path) -> Result<(Vec<JournalRecord>, usize), String> {
    let (mut records, mut skipped) = read_file(&dir.join(JOURNAL_ROTATED))?;
    let (current, s) = read_file(&dir.join(JOURNAL_FILE))?;
    records.extend(current);
    skipped += s;
    Ok((records, skipped))
}

/// Reads one journal file *strictly*: any unparseable non-blank line is
/// an error. The tolerant [`read_file`] is right for queries (a
/// crash-truncated tail must not break `dsa obs runs`); a **rewrite**
/// must not silently discard lines it cannot parse, so [`gc`] uses this.
fn read_file_strict(path: &Path) -> Result<Vec<JournalRecord>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = JournalRecord::from_json_line(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// What a [`gc`] with the same `keep` would do, without doing it: the
/// run ids that would survive (chronological order) and the ones that
/// would be dropped. Backs `dsa obs gc --dry-run`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcPlan {
    /// Run ids that would be kept, oldest first.
    pub kept: Vec<String>,
    /// Run ids that would be dropped, oldest first.
    pub dropped: Vec<String>,
}

/// Plans a compaction to the newest `keep` records without touching the
/// journal. Reads **strictly**, exactly like [`gc`]: a plan that a real
/// gc would refuse to execute is an error here too, so the dry run is a
/// faithful preview.
///
/// # Errors
///
/// Returns an error on unreadable files or any unparseable journal line.
pub fn gc_plan(dir: &Path, keep: usize) -> Result<GcPlan, String> {
    let mut records = read_file_strict(&dir.join(JOURNAL_ROTATED))?;
    records.extend(read_file_strict(&dir.join(JOURNAL_FILE))?);
    let kept = records.len().min(keep);
    let dropped = records.len() - kept;
    Ok(GcPlan {
        kept: records[dropped..]
            .iter()
            .map(|r| r.meta.run_id.clone())
            .collect(),
        dropped: records[..dropped]
            .iter()
            .map(|r| r.meta.run_id.clone())
            .collect(),
    })
}

/// Compacts the journal under `dir` to its newest `keep` records: both
/// generations are read **strictly** (any unparseable line aborts the
/// compaction — gc must never destroy data it cannot re-serialize), the
/// newest `keep` records are rewritten atomically (temp sibling +
/// rename) into `journal.jsonl`, and the rotated generation is removed.
/// Returns `(kept, dropped)` record counts. A missing journal compacts
/// to `(0, 0)` without creating any file.
///
/// # Errors
///
/// Returns an error on unreadable files, any unparseable journal line,
/// or a failed rewrite — in every case the journal on disk is untouched.
pub fn gc(dir: &Path, keep: usize) -> Result<(usize, usize), String> {
    let rotated_path = dir.join(JOURNAL_ROTATED);
    let current_path = dir.join(JOURNAL_FILE);
    let mut records = read_file_strict(&rotated_path)?;
    records.extend(read_file_strict(&current_path)?);
    if records.is_empty() {
        return Ok((0, 0));
    }
    let kept = records.len().min(keep);
    let dropped = records.len() - kept;
    let mut text = String::new();
    for record in &records[dropped..] {
        text.push_str(&record.to_json_line());
        text.push('\n');
    }
    let tmp = current_path.with_extension(format!("jsonl.tmp.{}", std::process::id()));
    std::fs::write(&tmp, text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &current_path)
        .map_err(|e| format!("installing {}: {e}", current_path.display()))?;
    if rotated_path.exists() {
        std::fs::remove_file(&rotated_path)
            .map_err(|e| format!("removing {}: {e}", rotated_path.display()))?;
    }
    Ok((kept, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    pub(crate) fn sample(run_id: &str, swarm_self_ns: u64) -> JournalRecord {
        let mut record = JournalRecord {
            meta: RunMeta {
                run_id: run_id.to_string(),
                binary: "experiments".to_string(),
                command: "experiments profile".to_string(),
                timestamp_ms: 1_754_640_000_000,
                scale: Some("smoke".to_string()),
                domain: None,
                seed: Some(0x5EED),
                threads: 8,
            },
            wall_ms: 1200,
            mem: Some(MemBlock {
                rss_peak_bytes: 48 << 20,
                alloc_count: 1234,
                alloc_bytes: 5 << 20,
            }),
            cache: vec![
                ("pra-swarm-smoke.csv".to_string(), "miss.absent".to_string()),
                ("pra-swarm-smoke.csv".to_string(), "store".to_string()),
            ],
            ..JournalRecord::default()
        };
        record.counters.insert("cache.store".to_string(), 1);
        record.gauges.insert("parallel.imbalance".to_string(), 1.25);
        record.hists.insert(
            "attacks.cell_ns".to_string(),
            HistSummary {
                count: 10,
                sum: 1000,
                p50: 90,
                p95: 150,
                p99: 190,
            },
        );
        record.spans.insert(
            "swarm.run".to_string(),
            SpanSummary {
                count: 40,
                total_ns: swarm_self_ns + 1_000_000,
                self_ns: swarm_self_ns,
                p50: 100_000,
                p95: 200_000,
                p99: 250_000,
            },
        );
        record
    }

    #[test]
    fn json_line_roundtrips() {
        let record = sample("unit-1", 80_000_000);
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = JournalRecord::from_json_line(&line).unwrap();
        assert_eq!(record, parsed);
    }

    #[test]
    fn records_without_a_mem_block_still_parse() {
        // The mem block is additive: pre-memory-dimension journal lines
        // (and runs that recorded no memory telemetry) parse with
        // mem: None and their line omits the key entirely.
        let mut record = sample("unit-nomem", 1_000_000);
        record.mem = None;
        let line = record.to_json_line();
        assert!(!line.contains("\"mem\""));
        let parsed = JournalRecord::from_json_line(&line).unwrap();
        assert_eq!(parsed.mem, None);
        assert_eq!(parsed, record);
    }

    #[test]
    fn mem_block_is_collected_from_snapshot_instruments() {
        let mut snap = Snapshot::default();
        assert_eq!(MemBlock::from_registries(&snap), None);
        snap.gauges.insert("mem.rss_peak_bytes".to_string(), 1e6);
        snap.counters.insert("mem.alloc.count".to_string(), 7);
        snap.counters.insert("mem.alloc.bytes".to_string(), 900);
        assert_eq!(
            MemBlock::from_registries(&snap),
            Some(MemBlock {
                rss_peak_bytes: 1_000_000,
                alloc_count: 7,
                alloc_bytes: 900,
            })
        );
    }

    #[test]
    fn v1_and_v2_mem_blocks_parse_alike_and_v3_is_rejected() {
        // A v1 mem block also carries the arena footprint, which v2
        // dropped.
        let line = |v: u64, mem: &str| {
            format!(
                "{{\"v\":{v},\"run\":\"r\",\"bin\":\"dsa\",\"cmd\":\"obs runs\",\"ts_ms\":1,\
                 \"threads\":1,\"wall_ms\":2,\"mem\":{{{mem}}}}}"
            )
        };
        let v1 = line(
            1,
            "\"rss_peak_bytes\":10,\"arena_peak_bytes\":20,\"alloc_count\":30,\"alloc_bytes\":40",
        );
        let v2_mem = "\"rss_peak_bytes\":10,\"alloc_count\":30,\"alloc_bytes\":40";
        let v1 = JournalRecord::from_json_line(&v1).unwrap();
        let v2 = JournalRecord::from_json_line(&line(2, v2_mem)).unwrap();
        assert_eq!(
            v1.mem,
            Some(MemBlock {
                rss_peak_bytes: 10,
                alloc_count: 30,
                alloc_bytes: 40,
            })
        );
        assert_eq!(v1, v2);
        let err = JournalRecord::from_json_line(&line(3, v2_mem)).unwrap_err();
        assert!(err.contains("version 3"), "{err}");
        // New records are written at v2.
        assert!(sample("unit-v2", 1).to_json_line().starts_with("{\"v\":2,"));
    }

    #[test]
    fn optional_fields_roundtrip_as_null() {
        let mut record = sample("unit-null", 1_000_000);
        record.meta.scale = None;
        record.meta.seed = None;
        let line = record.to_json_line();
        assert!(line.contains("\"scale\":null"));
        let parsed = JournalRecord::from_json_line(&line).unwrap();
        assert_eq!(parsed.meta.scale, None);
        assert_eq!(parsed.meta.seed, None);
    }

    #[test]
    fn runs_json_summarizes_every_record() {
        let mut second = sample("unit-b", 1);
        second.meta.scale = None;
        let doc = json::parse(&runs_json(&[sample("unit-a", 1), second], 3)).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("skipped").and_then(Json::as_u64), Some(3));
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs[1].get("run").and_then(Json::as_str), Some("unit-b"));
        assert_eq!(runs[0].get("scale").and_then(Json::as_str), Some("smoke"));
        assert_eq!(runs[1].get("scale"), Some(&Json::Null));
        assert_eq!(runs[0].get("cache_touches").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn schema_signature_is_pinned() {
        // Schema drift (renamed/re-typed/reordered fields) must be a
        // deliberate act: update this pin AND bump "v" together.
        let line = sample("unit-schema", 1).to_json_line();
        let expected = "\
v:num
run:str
bin:str
cmd:str
ts_ms:num
scale:str
domain:null
seed:num
threads:num
wall_ms:num
mem{rss_peak_bytes,alloc_count,alloc_bytes}
cache[]{file,outcome}
counters{name -> num}
gauges{name -> num}
hists{name -> {count,sum,p50,p95,p99}}
spans{name -> {count,total_ns,self_ns,p50,p95,p99}}
";
        assert_eq!(schema_of(&line).unwrap(), expected);
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsa-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_and_read_roundtrip() {
        let dir = fresh_dir("rt");
        let a = sample("run-a", 10_000_000);
        let b = sample("run-b", 12_000_000);
        append(&dir, &a, DEFAULT_MAX_BYTES).unwrap();
        append(&dir, &b, DEFAULT_MAX_BYTES).unwrap();
        let (records, skipped) = read_all(&dir).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records, vec![a, b]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_caps_the_file_and_keeps_one_generation() {
        let dir = fresh_dir("rot");
        let line_len = sample("run-0", 1).to_json_line().len() as u64 + 1;
        // Cap to ~3 lines: the 4th append must rotate.
        let cap = line_len * 3 + 10;
        for i in 0..5 {
            append(&dir, &sample(&format!("run-{i}"), 1), cap).unwrap();
        }
        let current = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert!(
            current <= cap,
            "current journal {current} exceeds cap {cap}"
        );
        assert!(dir.join(JOURNAL_ROTATED).exists());
        // All records survive across the rotation boundary, in order.
        let (records, _) = read_all(&dir).unwrap();
        let ids: Vec<&str> = records.iter().map(|r| r.meta.run_id.as_str()).collect();
        assert_eq!(ids, ["run-0", "run-1", "run-2", "run-3", "run-4"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_tail_line_is_skipped_not_fatal() {
        let dir = fresh_dir("corrupt");
        let a = sample("run-a", 10_000_000);
        append(&dir, &a, DEFAULT_MAX_BYTES).unwrap();
        // Simulate a crash mid-append: a truncated final line.
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        let half = sample("run-b", 1).to_json_line();
        text.push_str(&half[..half.len() / 2]);
        std::fs::write(&path, text).unwrap();
        let (records, skipped) = read_file(&path).unwrap();
        assert_eq!(records, vec![a]);
        assert_eq!(skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_the_newest_records_and_collapses_generations() {
        let dir = fresh_dir("gc");
        let line_len = sample("run-0", 1).to_json_line().len() as u64 + 1;
        // Force a rotation so gc has two generations to collapse.
        let cap = line_len * 3 + 10;
        for i in 0..6 {
            append(&dir, &sample(&format!("run-{i}"), 1), cap).unwrap();
        }
        assert!(dir.join(JOURNAL_ROTATED).exists());
        let (kept, dropped) = gc(&dir, 2).unwrap();
        assert_eq!((kept, dropped), (2, 4));
        assert!(!dir.join(JOURNAL_ROTATED).exists());
        let (records, skipped) = read_all(&dir).unwrap();
        assert_eq!(skipped, 0);
        let ids: Vec<&str> = records.iter().map(|r| r.meta.run_id.as_str()).collect();
        assert_eq!(ids, ["run-4", "run-5"]);
        // Keeping more than exists keeps everything.
        assert_eq!(gc(&dir, 100).unwrap(), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_plan_previews_without_rewriting() {
        let dir = fresh_dir("gc-plan");
        for i in 0..4 {
            append(&dir, &sample(&format!("run-{i}"), 1), DEFAULT_MAX_BYTES).unwrap();
        }
        let before = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        let plan = gc_plan(&dir, 2).unwrap();
        assert_eq!(plan.dropped, ["run-0", "run-1"]);
        assert_eq!(plan.kept, ["run-2", "run-3"]);
        // The preview touched nothing.
        assert_eq!(
            std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap(),
            before
        );
        // And it agrees with what a real gc then does.
        assert_eq!(gc(&dir, 2).unwrap(), (2, 2));
        let (records, _) = read_all(&dir).unwrap();
        let ids: Vec<&str> = records.iter().map(|r| r.meta.run_id.as_str()).collect();
        assert_eq!(ids, plan.kept);
        // An unparseable line fails the plan just like the real gc.
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"v\":1,\"run\":\"trunc");
        std::fs::write(&path, &text).unwrap();
        assert!(gc_plan(&dir, 10).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_refuses_on_parse_errors_and_leaves_the_journal_alone() {
        let dir = fresh_dir("gc-refuse");
        append(&dir, &sample("run-a", 1), DEFAULT_MAX_BYTES).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"v\":1,\"run\":\"trunc");
        std::fs::write(&path, &text).unwrap();
        let err = gc(&dir, 10).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // The journal is byte-identical: nothing was destroyed.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_of_a_missing_journal_is_a_no_op() {
        let dir = fresh_dir("gc-missing");
        assert_eq!(gc(&dir, 5).unwrap(), (0, 0));
        assert!(!dir.join(JOURNAL_FILE).exists());
    }

    #[test]
    fn missing_journal_reads_as_empty() {
        let dir = fresh_dir("missing");
        let (records, skipped) = read_all(&dir).unwrap();
        assert!(records.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn from_snapshot_folds_in_cache_events_and_quantiles() {
        let _g = crate::tests::LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        crate::enable_trace();
        crate::reset();
        note_cache_event("pra-rep-smoke.csv", "hit");
        crate::observe("evo.cell_ns", 100);
        crate::observe("evo.cell_ns", 100);
        {
            let _s = crate::span("unit.work");
        }
        let snap = crate::snapshot();
        let record = JournalRecord::from_snapshot(
            RunMeta {
                run_id: "snap-1".to_string(),
                ..RunMeta::default()
            },
            5,
            &snap,
        );
        crate::disable();
        crate::reset();
        assert_eq!(
            record.cache,
            vec![("pra-rep-smoke.csv".to_string(), "hit".to_string())]
        );
        let h = &record.hists["evo.cell_ns"];
        assert_eq!((h.count, h.sum), (2, 200));
        assert_eq!((h.p50, h.p95, h.p99), (100, 100, 100));
        assert_eq!(record.spans["unit.work"].count, 1);
    }

    #[test]
    fn cache_events_respect_the_cap() {
        let _g = crate::tests::LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        crate::enable_metrics();
        crate::reset();
        for i in 0..(CACHE_EVENT_CAP + 10) {
            note_cache_event(&format!("file-{i}"), "hit");
        }
        assert_eq!(cache_events().len(), CACHE_EVENT_CAP);
        let snap = crate::snapshot();
        assert_eq!(snap.counters["obs.cache_events_dropped"], 10);
        crate::disable();
        crate::reset();
        assert!(cache_events().is_empty());
    }
}
