//! Every row family against the committed artifacts: each `results/*.json`
//! names a known experiment, its rows render back to the file's own tagged
//! `rows` array, and its metric view has one unique, non-empty key per row.
//! Runs no simulation.

use scoop_lab::artifact::ArtifactStore;
use scoop_lab::suite::ExperimentId;
use serde_json::Value;
use std::collections::HashSet;
use std::path::PathBuf;

#[test]
fn committed_artifacts_round_trip_through_every_row_family() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let store = ArtifactStore::new(&dir);
    let mut families = HashSet::new();
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("results/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        files += 1;
        let slug = path.file_stem().and_then(|s| s.to_str()).unwrap();
        let artifact = store.load(slug).expect("committed artifact loads");
        let id = ExperimentId::from_slug(&artifact.experiment)
            .unwrap_or_else(|| panic!("{slug}: unknown experiment `{}`", artifact.experiment));

        // The file's `rows` is `{"<Family>": [...]}`; `rows_json` is the bare
        // array, and `len` its length.
        let file: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let tagged = file
            .get("rows")
            .and_then(Value::as_object)
            .expect("rows is a tagged object");
        let [(family, array)] = tagged.as_slice() else {
            panic!("{slug}: rows carries {} tags, not one", tagged.len());
        };
        families.insert(family.clone());
        let bare: Value = serde_json::from_str(&artifact.rows.rows_json().unwrap()).unwrap();
        assert_eq!(&bare, array, "{slug}: rows_json differs from the file");
        let rows = array.as_array().expect("tagged rows are an array");
        assert_eq!(artifact.rows.len(), rows.len(), "{slug}: len");

        let measured = artifact.rows.measured_rows(id.reference_key());
        assert_eq!(
            measured.len(),
            rows.len(),
            "{slug}: one measured row per row"
        );
        let mut keys = HashSet::new();
        for row in &measured {
            assert!(!row.key.is_empty(), "{slug}: empty row key");
            assert!(
                keys.insert(row.key.as_str()),
                "{slug}: duplicate key {}",
                row.key
            );
            assert!(
                !row.metrics.is_empty(),
                "{slug}: {} has no metrics",
                row.key
            );
        }
    }
    assert_eq!(
        files,
        ExperimentId::ALL.len(),
        "one artifact per experiment"
    );
    assert_eq!(families.len(), 12, "every RowSet family is committed");
}
