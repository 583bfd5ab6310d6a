//! The shared run lifecycle (`lithogan::cli::run`): whatever way the
//! body ends, the run's manifest leaves `running` and the runs index
//! gets exactly one line for it.

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use litho_ledger::{load_index, load_manifest};
use litho_tensor::TensorError;
use lithogan::cli::{run, GlobalOpts, RunRecord};

/// Telemetry, the incident recorder and the panic hook are process-wide,
/// so the lifecycles in this binary run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lithogan-lifecycle-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(root: &Path) -> GlobalOpts {
    GlobalOpts {
        runs_root: root.to_string_lossy().into_owned(),
        ..GlobalOpts::default()
    }
}

fn record() -> Option<RunRecord> {
    Some(RunRecord {
        seed: Some(7),
        config: vec![
            ("scale".into(), "quick".into()),
            ("clips".into(), "4".into()),
        ],
    })
}

/// The one run under `root`: its manifest status and the index lines
/// naming it.
fn only_run(root: &Path) -> (String, usize) {
    let dirs: Vec<PathBuf> = fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    assert_eq!(dirs.len(), 1, "{dirs:?}");
    let manifest = load_manifest(&dirs[0]).unwrap();
    assert_eq!(manifest.seed, Some(7));
    assert_eq!(manifest.config, record().unwrap().config);
    let index = load_index(root).unwrap();
    let lines = index
        .records
        .iter()
        .filter(|r| r.run_id == manifest.run_id)
        .count();
    assert_eq!(index.records.len(), lines);
    (manifest.status, lines)
}

#[test]
fn a_body_that_errs_finalizes_the_run_as_error() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let root = scratch("err");
    let outcome = run(&opts(&root), "exp", record(), |ledger| {
        assert!(ledger.is_some());
        Err(TensorError::InvalidArgument("boom".into()))
    });
    assert!(outcome.unwrap_err().to_string().contains("boom"));
    assert_eq!(only_run(&root), ("error".to_string(), 1));
    lithogan::incident::disarm();
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_body_that_panics_finalizes_the_run_as_error() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let root = scratch("panic");
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        run(&opts(&root), "exp", record(), |_| panic!("out_dir failed"))
    }));
    assert!(caught.is_err());
    assert_eq!(only_run(&root), ("error".to_string(), 1));
    lithogan::incident::disarm();
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_clean_body_finalizes_ok_and_no_record_means_no_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let root = scratch("ok");
    run(&opts(&root), "exp", record(), |_| Ok(())).unwrap();
    assert_eq!(only_run(&root), ("ok".to_string(), 1));
    lithogan::incident::disarm();

    let bare = root.join("bare");
    run(&opts(&bare), "help", None, |ledger| {
        assert!(ledger.is_none());
        Ok(())
    })
    .unwrap();
    let no_run = GlobalOpts {
        no_run: true,
        ..opts(&bare)
    };
    run(&no_run, "exp", record(), |ledger| {
        assert!(ledger.is_none());
        Ok(())
    })
    .unwrap();
    assert!(!bare.exists());
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn an_unusable_runs_root_or_sink_is_an_error_before_the_body() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let root = scratch("unusable");
    let file = root.join("plain-file");
    fs::write(&file, b"not a directory").unwrap();
    let err = run(&opts(&file.join("runs")), "exp", record(), |_| {
        panic!("body ran")
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("run ledger"), "{err}");

    let sink = GlobalOpts {
        metrics_out: Some(file.join("trace.jsonl").to_string_lossy().into_owned()),
        no_run: true,
        ..opts(&root)
    };
    let err = run(&sink, "exp", record(), |_| panic!("body ran"))
        .unwrap_err()
        .to_string();
    assert!(err.contains("--metrics-out"), "{err}");
    litho_telemetry::disable();
    fs::remove_dir_all(&root).unwrap();
}
