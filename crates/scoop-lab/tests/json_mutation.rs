//! Hostile artifact and baseline JSON: a committed artifact
//! (`results/fig5.json`) and the committed smoke baseline, cut short,
//! overwritten byte by byte, given out-of-range numbers or buried in
//! brackets, must each decode to a value that serializes again or to a
//! typed error — never a panic, never a stack overflow.

use scoop_lab::artifact::{Artifact, ArtifactStore};
use serde_json::Value;
use std::path::PathBuf;

fn workspace_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The byte spans of the number tokens outside strings.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_string = true;
            i += 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// The mutations of `text` of one `kind`, placed by `pick`: a cut, a byte
/// overwritten with each JSON punctuation mark, a number replaced by each
/// out-of-range spelling, or the whole document buried in brackets.
fn mutations(text: &str, kind: usize, pick: u64) -> Vec<String> {
    const BYTES: &[u8] = b"[]{}\",:-0e\\";
    const NUMBERS: [&str; 4] = ["1e999", "-0", "18446744073709551616", "NaN"];
    match kind {
        0 => vec![text[..pick as usize % (text.len() + 1)].to_string()],
        1 => {
            let at = pick as usize % text.len();
            BYTES
                .iter()
                .map(|&b| {
                    let mut bytes = text.as_bytes().to_vec();
                    bytes[at] = b;
                    String::from_utf8(bytes).expect("the committed files are ASCII")
                })
                .collect()
        }
        2 => {
            let spans = number_spans(text);
            let (start, end) = spans[pick as usize % spans.len()];
            NUMBERS
                .iter()
                .map(|number| format!("{}{number}{}", &text[..start], &text[end..]))
                .collect()
        }
        _ => {
            let depth = 1 + pick as usize % 200;
            vec![format!("{}{text}{}", "[".repeat(depth), "]".repeat(depth))]
        }
    }
}

/// Decodes `text` as `T`: an `Ok` must serialize again, to JSON that parses.
fn decodes_or_errs<T: serde::Deserialize + serde::Serialize>(text: &str) {
    match serde_json::from_str::<T>(text) {
        Ok(value) => {
            let again = serde_json::to_string(&value).expect("a decoded value serializes");
            serde_json::from_str::<Value>(&again).expect("re-serialized JSON parses");
        }
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_artifact_and_baseline_json_never_panics(kind in 0usize..4, pick in 0u64..u64::MAX) {
        for mutated in mutations(&workspace_file("results/fig5.json"), kind, pick) {
            decodes_or_errs::<Value>(&mutated);
            decodes_or_errs::<Artifact>(&mutated);
        }
        let baseline = workspace_file("crates/scoop-lab/baselines/smoke.json");
        for mutated in mutations(&baseline, kind, pick) {
            decodes_or_errs::<Value>(&mutated);
            decodes_or_errs::<Vec<Artifact>>(&mutated);
        }
    }
}

#[test]
fn a_deeply_nested_artifact_file_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("scoop-lab-deep-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = ArtifactStore::new(&dir);
    for (slug, open) in [("fig5", "["), ("fig4", "{\"k\":")] {
        std::fs::write(store.path_for(slug), open.repeat(100_000)).unwrap();
        let err = store.load(slug).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
