//! Run manifests and the `runs/<id>/` directory layout.
//!
//! Every `train` / `eval` / `predict` / bench invocation opens a
//! [`RunLedger`], which
//!
//! 1. creates `runs/<id>/` (id = `<command>-<unix-seconds>-<pid>`),
//! 2. writes `manifest.json` immediately (status `"running"`, so killed
//!    runs are distinguishable from completed ones),
//! 3. appends per-sample [`SampleRecord`]s to `samples.jsonl`,
//! 4. rewrites the manifest with status and wall-clock on
//!    [`RunLedger::finalize`].
//!
//! The telemetry JSONL stream (`trace.jsonl` by default) lands in the same
//! directory, so one `runs/<id>/` is a complete, comparable artifact.

use std::fs;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use litho_metrics::{MetricAccumulator, SampleRecord};

use crate::json::Json;

/// Manifest schema version, bumped on incompatible layout changes.
/// Version 2 renamed the field itself from `schema` to `schema_version`
/// (matching the index records); the parser accepts both spellings and
/// treats a manifest with neither as version 1.
pub const MANIFEST_SCHEMA: u32 = 2;

/// Identity of the dataset a run consumed. The fingerprint is an FNV-1a
/// 64-bit hash of the dataset file bytes, so two runs are comparable only
/// when their fingerprints match.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetInfo {
    /// Path as given on the command line.
    pub path: String,
    /// FNV-1a 64 hash of the file contents, hex.
    pub fingerprint: String,
    /// File size, bytes.
    pub bytes: u64,
    /// Sample count.
    pub samples: usize,
    /// Image resolution.
    pub image_size: usize,
    /// Process node name (`N10` / `N7`).
    pub node: String,
    /// Nanometres per golden-image pixel (the EDE unit).
    pub nm_per_px: f64,
}

impl DatasetInfo {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("path".into(), Json::Str(self.path.clone())),
            ("fingerprint".into(), Json::Str(self.fingerprint.clone())),
            ("bytes".into(), Json::Num(self.bytes as f64)),
            ("samples".into(), Json::Num(self.samples as f64)),
            ("image_size".into(), Json::Num(self.image_size as f64)),
            ("node".into(), Json::Str(self.node.clone())),
            ("nm_per_px".into(), Json::Num(self.nm_per_px)),
        ])
    }

    fn from_json(v: &Json) -> Option<DatasetInfo> {
        Some(DatasetInfo {
            path: v.get("path")?.as_str()?.to_string(),
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            bytes: v.get("bytes")?.as_u64()?,
            samples: v.get("samples")?.as_u64()? as usize,
            image_size: v.get("image_size")?.as_u64()? as usize,
            node: v.get("node")?.as_str()?.to_string(),
            nm_per_px: v.get("nm_per_px")?.as_f64()?,
        })
    }
}

/// FNV-1a 64 fingerprint of a file: `(hex_digest, byte_length)`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn fingerprint_file(path: &Path) -> io::Result<(String, u64)> {
    let mut file = fs::File::open(path)?;
    let mut hash = litho_tensor::Fnv1a::new();
    let mut len: u64 = 0;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        len += n as u64;
        hash.write(&buf[..n]);
    }
    Ok((hash.hex(), len))
}

/// The durable description of one run, stored as
/// `runs/<id>/manifest.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    pub schema_version: u32,
    pub run_id: String,
    /// Subcommand or bench binary name (`train`, `predict`, `table3`, …).
    pub command: String,
    /// Wall-clock start, seconds since the Unix epoch.
    pub started_unix_s: u64,
    /// RNG seed, when the command has one.
    pub seed: Option<u64>,
    /// Flat key/value configuration (epochs, flags, scale label, …).
    pub config: Vec<(String, String)>,
    pub dataset: Option<DatasetInfo>,
    /// Path of the telemetry JSONL stream, relative to the run directory
    /// unless absolute.
    pub trace: Option<String>,
    /// `running`, `ok`, `error` or `aborted(<reason>)`.
    pub status: String,
    /// Total wall-clock, present once finalized.
    pub wall_clock_s: Option<f64>,
    /// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`);
    /// `None` where the proc filesystem is unavailable.
    pub peak_rss_bytes: Option<u64>,
    /// Cumulative tensor data bytes allocated by the process
    /// ([`litho_tensor::allocated_bytes`]), an allocator-churn signal.
    pub tensor_alloc_bytes: Option<u64>,
    /// Effective worker-pool width (`--threads` / `LITHO_THREADS` /
    /// detected cores); `None` on manifests from before the pool existed.
    pub threads: Option<usize>,
    /// Active SIMD kernel level (`"scalar"` / `"avx2"`, from `--simd` /
    /// `LITHO_SIMD` / CPUID detection); `None` on manifests from before
    /// runtime kernel dispatch existed.
    pub simd: Option<String>,
    /// Inference throughput over the run's evaluated samples, a
    /// `runs trend`-able headline performance metric.
    pub samples_per_sec: Option<f64>,
    /// Mean worker-pool utilization over the run's parallel regions
    /// (busy time over threads × wall, 0..1); `None` on manifests from
    /// before pool profiling or when the pool never ran a job.
    pub pool_utilization: Option<f64>,
    /// Largest single workspace buffer requested during the run, bytes
    /// ([`litho_tensor::peak_workspace_bytes`]).
    pub peak_workspace_bytes: Option<u64>,
    /// Evaluated pairs excluded from box-based metrics because a side had
    /// no foreground ([`MetricAccumulator::skipped`]). Stamped at
    /// finalize; `None` on manifests that predate the field or on runs
    /// that evaluated nothing. A large value next to a low EDE means the
    /// model collapsed to empty output.
    pub eval_skipped: Option<usize>,
}

impl RunManifest {
    /// Serializes to pretty-stable compact JSON.
    pub fn to_json_string(&self) -> String {
        let mut members = vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("run_id".into(), Json::Str(self.run_id.clone())),
            ("command".into(), Json::Str(self.command.clone())),
            (
                "started_unix_s".into(),
                Json::Num(self.started_unix_s as f64),
            ),
        ];
        if let Some(seed) = self.seed {
            members.push(("seed".into(), Json::Num(seed as f64)));
        }
        members.push((
            "config".into(),
            Json::Obj(
                self.config
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
        if let Some(ds) = &self.dataset {
            members.push(("dataset".into(), ds.to_json()));
        }
        if let Some(trace) = &self.trace {
            members.push(("trace".into(), Json::Str(trace.clone())));
        }
        if let Some(threads) = self.threads {
            members.push(("threads".into(), Json::Num(threads as f64)));
        }
        if let Some(simd) = &self.simd {
            members.push(("simd".into(), Json::Str(simd.clone())));
        }
        if let Some(sps) = self.samples_per_sec {
            members.push(("samples_per_sec".into(), Json::Num(sps)));
        }
        if let Some(util) = self.pool_utilization {
            members.push(("pool_utilization".into(), Json::Num(util)));
        }
        if let Some(ws) = self.peak_workspace_bytes {
            members.push(("peak_workspace_bytes".into(), Json::Num(ws as f64)));
        }
        if let Some(skipped) = self.eval_skipped {
            members.push(("eval_skipped".into(), Json::Num(skipped as f64)));
        }
        members.push(("status".into(), Json::Str(self.status.clone())));
        if let Some(wall) = self.wall_clock_s {
            members.push(("wall_clock_s".into(), Json::Num(wall)));
        }
        if self.wall_clock_s.is_some() {
            // Memory accounting is stamped at finalize time; `null` keeps
            // the field visible on platforms without /proc.
            members.push((
                "peak_rss_bytes".into(),
                match self.peak_rss_bytes {
                    Some(v) => Json::Num(v as f64),
                    None => Json::Null,
                },
            ));
            members.push((
                "tensor_alloc_bytes".into(),
                match self.tensor_alloc_bytes {
                    Some(v) => Json::Num(v as f64),
                    None => Json::Null,
                },
            ));
        }
        let mut out = Json::Obj(members).to_string_compact();
        out.push('\n');
        out
    }

    /// Parses a manifest written by [`Self::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error for malformed JSON or missing fields.
    pub fn from_json_str(text: &str) -> io::Result<RunManifest> {
        let v = Json::parse(text).map_err(|e| invalid(format!("manifest: {e}")))?;
        let str_field = |key: &str| -> io::Result<String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("manifest: missing field {key:?}")))
        };
        let config = match v.get("config") {
            Some(Json::Obj(members)) => members
                .iter()
                .filter_map(|(k, val)| val.as_str().map(|s| (k.clone(), s.to_string())))
                .collect(),
            _ => Vec::new(),
        };
        Ok(RunManifest {
            schema_version: v
                .get("schema_version")
                .or_else(|| v.get("schema")) // pre-v2 spelling
                .and_then(Json::as_u64)
                .unwrap_or(1) as u32,
            run_id: str_field("run_id")?,
            command: str_field("command")?,
            started_unix_s: v
                .get("started_unix_s")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            seed: v.get("seed").and_then(Json::as_u64),
            config,
            dataset: v.get("dataset").and_then(DatasetInfo::from_json),
            trace: v.get("trace").and_then(Json::as_str).map(str::to_string),
            status: str_field("status")?,
            wall_clock_s: v.get("wall_clock_s").and_then(Json::as_f64),
            peak_rss_bytes: v.get("peak_rss_bytes").and_then(Json::as_u64),
            tensor_alloc_bytes: v.get("tensor_alloc_bytes").and_then(Json::as_u64),
            threads: v.get("threads").and_then(Json::as_u64).map(|n| n as usize),
            simd: v.get("simd").and_then(Json::as_str).map(str::to_string),
            samples_per_sec: v.get("samples_per_sec").and_then(Json::as_f64),
            pool_utilization: v.get("pool_utilization").and_then(Json::as_f64),
            peak_workspace_bytes: v.get("peak_workspace_bytes").and_then(Json::as_u64),
            eval_skipped: v
                .get("eval_skipped")
                .and_then(Json::as_u64)
                .map(|n| n as usize),
        })
    }
}

/// Validates a user-supplied run id before it is joined onto a runs
/// root. Ledger-minted ids are always a single path component
/// (`<command>-<unix>-<pid>`), so anything with a separator or a parent
/// reference is an attempt to escape the root (`report ../../etc/x`),
/// not a run id. Shared by every CLI subcommand and dash route that
/// resolves `<runs-root>/<id>`.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] naming the offending id when it is
/// empty, contains `/` or `\`, or contains a `..` component.
pub fn validate_run_id(id: &str) -> io::Result<()> {
    let bad = id.is_empty() || id.contains('/') || id.contains('\\') || id.contains("..");
    if bad {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid run id {id:?}: run ids are a single path component"),
        ));
    }
    Ok(())
}

/// Peak resident set size of this process in bytes, from the `VmHWM`
/// line of `/proc/self/status`. Returns `None` on platforms without a
/// proc filesystem (macOS, Windows) — callers record `null`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads `<run_dir>/manifest.json`.
///
/// # Errors
///
/// I/O errors, or [`io::ErrorKind::InvalidData`] for malformed manifests.
pub fn load_manifest(run_dir: &Path) -> io::Result<RunManifest> {
    let text = fs::read_to_string(run_dir.join("manifest.json"))?;
    RunManifest::from_json_str(&text)
}

/// An open run directory: manifest plus the `samples.jsonl` appender.
#[derive(Debug)]
pub struct RunLedger {
    dir: PathBuf,
    manifest: RunManifest,
    started: Instant,
    samples: Option<BufWriter<fs::File>>,
    /// Running aggregate of appended records, so the finalize-time index
    /// entry needs no re-read of `samples.jsonl`.
    summary: Option<MetricAccumulator>,
    /// When false, finalize skips the `index.jsonl` append (used by the
    /// index-overhead microbench to measure the delta).
    index_enabled: bool,
    finalized: bool,
}

impl RunLedger {
    /// Creates `root/<id>/` and writes the initial manifest (status
    /// `"running"`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(
        root: &Path,
        command: &str,
        seed: Option<u64>,
        config: Vec<(String, String)>,
        dataset: Option<DatasetInfo>,
    ) -> io::Result<RunLedger> {
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let base = format!("{command}-{unix}-{}", std::process::id());
        let mut dir = root.join(&base);
        let mut attempt = 1;
        // Same-process collisions (two ledgers in one second) get a suffix.
        while dir.exists() {
            attempt += 1;
            dir = root.join(format!("{base}-{attempt}"));
        }
        fs::create_dir_all(&dir)?;
        let run_id = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or(base);
        let manifest = RunManifest {
            schema_version: MANIFEST_SCHEMA,
            run_id,
            command: command.to_string(),
            started_unix_s: unix,
            seed,
            config,
            dataset,
            trace: None,
            status: "running".to_string(),
            wall_clock_s: None,
            peak_rss_bytes: None,
            tensor_alloc_bytes: None,
            threads: Some(litho_tensor::pool::effective_threads()),
            simd: Some(litho_tensor::active_level().name().to_string()),
            samples_per_sec: None,
            pool_utilization: None,
            peak_workspace_bytes: None,
            eval_skipped: None,
        };
        let ledger = RunLedger {
            dir,
            manifest,
            started: Instant::now(),
            samples: None,
            summary: None,
            index_enabled: true,
            finalized: false,
        };
        ledger.write_manifest()?;
        Ok(ledger)
    }

    fn write_manifest(&self) -> io::Result<()> {
        // Write-then-rename so a concurrent `runs watch` poll never reads
        // a truncated manifest (a parse failure reads as "waiting" there).
        let tmp = self.dir.join("manifest.json.tmp");
        fs::write(&tmp, self.manifest.to_json_string())?;
        fs::rename(tmp, self.dir.join("manifest.json"))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn run_id(&self) -> &str {
        &self.manifest.run_id
    }

    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// Default path for the telemetry stream inside this run directory.
    pub fn default_trace_path(&self) -> PathBuf {
        self.dir.join("trace.jsonl")
    }

    /// Records where the telemetry JSONL stream went and rewrites the
    /// manifest so `report` can find it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn set_trace_path(&mut self, path: &str) -> io::Result<()> {
        self.manifest.trace = Some(path.to_string());
        self.write_manifest()
    }

    /// Attaches dataset identity discovered after creation (bench runs
    /// build datasets lazily) and rewrites the manifest.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn set_dataset(&mut self, dataset: DatasetInfo) -> io::Result<()> {
        self.manifest.dataset = Some(dataset);
        self.write_manifest()
    }

    /// Records the run's measured inference throughput; stamped into the
    /// manifest (and the index, as a headline metric) at finalize.
    pub fn set_samples_per_sec(&mut self, samples_per_sec: f64) {
        self.manifest.samples_per_sec = Some(samples_per_sec);
    }

    /// Records the run's mean worker-pool utilization (0..1); stamped
    /// into the manifest (and the index) at finalize.
    pub fn set_pool_utilization(&mut self, utilization: f64) {
        self.manifest.pool_utilization = Some(utilization);
    }

    /// Records the largest single workspace buffer the run requested.
    pub fn set_peak_workspace_bytes(&mut self, bytes: u64) {
        self.manifest.peak_workspace_bytes = Some(bytes);
    }

    /// Appends one per-sample record to `samples.jsonl`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_record(&mut self, record: &SampleRecord) -> io::Result<()> {
        if self.samples.is_none() {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join("samples.jsonl"))?;
            self.samples = Some(BufWriter::new(file));
        }
        let w = self.samples.as_mut().expect("samples writer just created");
        writeln!(w, "{}", record.to_jsonl())?;
        // Records arrive already in nm, hence the unit factor.
        self.summary
            .get_or_insert_with(|| MetricAccumulator::new(1.0))
            .add_record(record);
        Ok(())
    }

    /// Disables the finalize-time `index.jsonl` append. Only the
    /// index-overhead microbench wants this; leave it on everywhere else
    /// or the run becomes invisible to `runs ls` / `runs trend` until
    /// the next `reindex`.
    pub fn set_index_enabled(&mut self, enabled: bool) {
        self.index_enabled = enabled;
    }

    /// Flushes records and rewrites the manifest with final status and
    /// wall-clock. Idempotent; also invoked on drop (as `status:
    /// "error"`-preserving best effort) so killed-but-unwinding runs still
    /// close their ledger.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finalize(&mut self, ok: bool) -> io::Result<()> {
        self.finalize_with_status(if ok { "ok" } else { "error" })
    }

    /// Like [`Self::finalize`] but with an explicit status string —
    /// training aborted by a health monitor records
    /// `aborted(<reason>)`. Also stamps memory accounting (peak RSS and
    /// cumulative tensor allocation) into the manifest.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finalize_with_status(&mut self, status: &str) -> io::Result<()> {
        if self.finalized {
            return Ok(());
        }
        self.finalized = true;
        if let Some(w) = self.samples.as_mut() {
            w.flush()?;
        }
        self.manifest.status = status.to_string();
        self.manifest.wall_clock_s = Some(self.started.elapsed().as_secs_f64());
        if let Some(acc) = &self.summary {
            self.manifest.eval_skipped = Some(acc.skipped());
        }
        self.manifest.peak_rss_bytes = peak_rss_bytes();
        self.manifest.tensor_alloc_bytes = Some(litho_tensor::allocated_bytes());
        self.write_manifest()?;
        if self.index_enabled {
            if let Some(root) = self.dir.parent() {
                let summary = self.summary.as_ref().map(|acc| acc.summary());
                let record = crate::index::record_from_parts(
                    &self.manifest,
                    summary.as_ref(),
                    crate::index::health_verdict(&self.dir),
                );
                crate::index::append_index(root, &record)?;
            }
        }
        Ok(())
    }
}

impl Drop for RunLedger {
    fn drop(&mut self) {
        if !self.finalized {
            let _ = self.finalize(false);
        }
    }
}

/// Reads `<run_dir>/samples.jsonl` into records, tolerating a truncated
/// final line (killed run). Returns `(records, skipped_line_count)`.
///
/// # Errors
///
/// Propagates I/O errors; a missing file yields an empty list.
pub fn load_records(run_dir: &Path) -> io::Result<(Vec<SampleRecord>, usize)> {
    let path = run_dir.join("samples.jsonl");
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let parse = litho_json::jsonl::parse_jsonl_with(&text, record_from_json);
    // Callers only distinguish "decoded" from "not": a truncated tail
    // counts toward the skipped tally here, as it always has.
    Ok((
        parse.records,
        parse.skipped_lines + usize::from(parse.truncated_tail),
    ))
}

/// Decodes one `samples.jsonl` line (the writer side lives in
/// [`litho_metrics::SampleRecord::to_jsonl`]).
pub fn record_from_json(v: &Json) -> Option<SampleRecord> {
    let opt_num = |key: &str| match v.get(key) {
        Some(Json::Num(n)) => Some(Some(*n)),
        Some(Json::Null) | None => Some(None),
        _ => None,
    };
    // Clip identity landed after the first ledgers shipped; absent (or
    // null) reads as `None`, same as the manifest `schema_version`
    // precedent, so legacy samples.jsonl lines keep parsing.
    let opt_str = |key: &str| match v.get(key) {
        Some(Json::Str(s)) => Some(Some(s.clone())),
        Some(Json::Null) | None => Some(None),
        _ => None,
    };
    let edges = match v.get("ede_edges_nm") {
        Some(Json::Arr(items)) if items.len() == 4 => {
            let mut edges = [0.0; 4];
            for (slot, item) in edges.iter_mut().zip(items) {
                *slot = item.as_f64()?;
            }
            Some(Some(edges))
        }
        Some(Json::Null) | None => Some(None),
        _ => None,
    }?;
    Some(SampleRecord {
        sample: v.get("sample")?.as_u64()?,
        pixel_accuracy: v.get("pixel_accuracy")?.as_f64()?,
        class_accuracy: v.get("class_accuracy")?.as_f64()?,
        mean_iou: v.get("mean_iou")?.as_f64()?,
        ede_mean_nm: opt_num("ede_mean_nm")?,
        ede_edges_nm: edges,
        center_error_nm: opt_num("center_error_nm")?,
        clip_fingerprint: opt_str("clip_fingerprint")?,
        family: opt_str("family")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("litho_ledger_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(i: u64) -> SampleRecord {
        SampleRecord {
            sample: i,
            pixel_accuracy: 0.9,
            class_accuracy: 0.8,
            mean_iou: 0.7,
            ede_mean_nm: Some(1.25),
            ede_edges_nm: Some([1.0, 1.5, 1.0, 1.5]),
            center_error_nm: Some(0.5),
            clip_fingerprint: Some(format!("{i:016x}")),
            family: Some("isolated".to_string()),
        }
    }

    #[test]
    fn ledger_round_trip() {
        let root = temp_dir("round_trip");
        let mut ledger = RunLedger::create(
            &root,
            "train",
            Some(7),
            vec![("epochs".into(), "4".into())],
            None,
        )
        .unwrap();
        ledger.append_record(&record(0)).unwrap();
        ledger.append_record(&record(1)).unwrap();

        // Mid-run manifest says running.
        let mid = load_manifest(ledger.dir()).unwrap();
        assert_eq!(mid.status, "running");
        assert_eq!(mid.seed, Some(7));

        ledger.finalize(true).unwrap();
        let done = load_manifest(ledger.dir()).unwrap();
        assert_eq!(done.status, "ok");
        assert!(done.wall_clock_s.is_some());
        assert_eq!(done.config, vec![("epochs".to_string(), "4".to_string())]);

        let (records, skipped) = load_records(ledger.dir()).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records, vec![record(0), record(1)]);
    }

    #[test]
    fn legacy_sample_lines_without_identity_still_parse() {
        // The exact shape every ledger wrote before clip identity existed.
        let legacy = r#"{"sample":0,"pixel_accuracy":0.95,"class_accuracy":0.9,"mean_iou":0.85,"ede_mean_nm":3.0,"ede_edges_nm":[3.0,3.0,3.0,3.0],"center_error_nm":0.5}"#;
        let rec = record_from_json(&Json::parse(legacy).unwrap()).unwrap();
        assert_eq!(rec.clip_fingerprint, None, "absent reads as null");
        assert_eq!(rec.family, None);
        assert_eq!(rec.ede_mean_nm, Some(3.0));
        // Explicit nulls decode identically to absence.
        let nulled = r#"{"sample":0,"pixel_accuracy":1,"class_accuracy":1,"mean_iou":1,"ede_mean_nm":null,"ede_edges_nm":null,"center_error_nm":null,"clip_fingerprint":null,"family":null}"#;
        let rec = record_from_json(&Json::parse(nulled).unwrap()).unwrap();
        assert_eq!(rec.clip_fingerprint, None);
        assert_eq!(rec.family, None);
        // A wrong-typed identity field rejects the line rather than
        // silently dropping the tag.
        let bad = r#"{"sample":0,"pixel_accuracy":1,"class_accuracy":1,"mean_iou":1,"family":7}"#;
        assert!(record_from_json(&Json::parse(bad).unwrap()).is_none());
        // Tagged records round-trip through the writer in litho-metrics.
        let tagged = record(3);
        let back = record_from_json(&Json::parse(&tagged.to_jsonl()).unwrap()).unwrap();
        assert_eq!(back, tagged);
    }

    #[test]
    fn finalize_stamps_eval_skipped() {
        let root = temp_dir("skipped");
        let mut ledger = RunLedger::create(&root, "eval", None, Vec::new(), None).unwrap();
        ledger.append_record(&record(0)).unwrap();
        let mut empty = record(1);
        empty.ede_mean_nm = None;
        empty.ede_edges_nm = None;
        empty.center_error_nm = None;
        ledger.append_record(&empty).unwrap();
        ledger.finalize(true).unwrap();
        let m = load_manifest(ledger.dir()).unwrap();
        assert_eq!(m.eval_skipped, Some(1));
        assert_eq!(RunManifest::from_json_str(&m.to_json_string()).unwrap(), m);
        // Runs that evaluate nothing don't carry the field.
        let root2 = temp_dir("skipped_none");
        let mut ledger = RunLedger::create(&root2, "generate", None, Vec::new(), None).unwrap();
        ledger.finalize(true).unwrap();
        assert_eq!(load_manifest(ledger.dir()).unwrap().eval_skipped, None);
    }

    #[test]
    fn truncated_samples_line_is_tolerated() {
        let root = temp_dir("truncated");
        let run = root.join("x");
        fs::create_dir_all(&run).unwrap();
        let full = record(0).to_jsonl();
        let half = &full[..full.len() / 2];
        fs::write(run.join("samples.jsonl"), format!("{full}\n{half}")).unwrap();
        let (records, skipped) = load_records(&run).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn finalize_with_status_records_abort_and_memory() {
        let root = temp_dir("aborted");
        let mut ledger = RunLedger::create(&root, "train", None, Vec::new(), None).unwrap();
        let _ = litho_tensor::Tensor::zeros(&[8]);
        ledger.finalize_with_status("aborted(nan)").unwrap();
        let m = load_manifest(ledger.dir()).unwrap();
        assert_eq!(m.status, "aborted(nan)");
        assert!(m.tensor_alloc_bytes.unwrap_or(0) > 0);
        // peak_rss_bytes is best-effort (None off-Linux) but must
        // round-trip through serialization either way.
        assert_eq!(m.peak_rss_bytes, peak_rss_bytes().and(m.peak_rss_bytes));
        let text = m.to_json_string();
        assert!(text.contains("\"peak_rss_bytes\""));
        assert_eq!(RunManifest::from_json_str(&text).unwrap(), m);
    }

    #[test]
    fn legacy_manifests_without_schema_version_still_parse() {
        // Pre-v2 spelling (`schema`), as in the committed fixtures.
        let v1 = r#"{"schema":1,"run_id":"train-1-2","command":"train","config":{},"status":"ok"}"#;
        let m = RunManifest::from_json_str(v1).unwrap();
        assert_eq!(m.schema_version, 1);
        assert_eq!(m.run_id, "train-1-2");

        // No version field at all: treated as version 1, not an error.
        let v0 = r#"{"run_id":"train-1-2","command":"train","config":{},"status":"ok"}"#;
        assert_eq!(RunManifest::from_json_str(v0).unwrap().schema_version, 1);

        // Current manifests round-trip the new spelling.
        let text = m.to_json_string();
        assert!(!text.contains("\"schema\":"));
        let current = RunManifest {
            schema_version: MANIFEST_SCHEMA,
            ..m
        };
        let text = current.to_json_string();
        assert!(text.contains("\"schema_version\":2"));
        assert_eq!(RunManifest::from_json_str(&text).unwrap(), current);
    }

    #[test]
    fn drop_without_finalize_marks_error() {
        let root = temp_dir("drop_err");
        let dir;
        {
            let ledger = RunLedger::create(&root, "predict", None, Vec::new(), None).unwrap();
            dir = ledger.dir().to_path_buf();
        }
        assert_eq!(load_manifest(&dir).unwrap().status, "error");
    }

    #[test]
    fn run_id_validation_rejects_traversal() {
        for ok in ["train-1700000100-1", "dash-1-2-3", "bench.table3"] {
            assert!(validate_run_id(ok).is_ok(), "{ok} should be valid");
        }
        for bad in ["", "..", "../etc", "a/b", "a\\b", "runs/../../etc/passwd", "a..b"] {
            let err = validate_run_id(bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad}");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let root = temp_dir("fp");
        let a = root.join("a.bin");
        let b = root.join("b.bin");
        fs::write(&a, b"hello world").unwrap();
        fs::write(&b, b"hello worle").unwrap();
        let (fa, la) = fingerprint_file(&a).unwrap();
        let (fa2, _) = fingerprint_file(&a).unwrap();
        let (fb, _) = fingerprint_file(&b).unwrap();
        assert_eq!(la, 11);
        assert_eq!(fa, fa2);
        assert_ne!(fa, fb);
        // Known FNV-1a 64 test vector.
        assert_eq!(fingerprint_file(&a).unwrap().0, "779a65e7023cd2e7");
    }
}
