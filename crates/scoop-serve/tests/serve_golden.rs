//! The hermetic serve smoke against its committed golden report.
//!
//! `run_smoke` takes no input — fixed seed, fixed query mix, in-memory
//! transport — so the whole report (digest included) is
//! committed at `golden/serve_smoke.json` and compared verbatim. An
//! intentional behavior change re-blesses with:
//!
//! ```text
//! SCOOP_SERVE_BLESS_GOLDEN=1 cargo test -p scoop-serve --test serve_golden
//! ```

use scoop_serve::smoke::{run_smoke, SmokeReport};
use std::path::Path;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/serve_smoke.json");

#[test]
fn smoke_matches_committed_golden() {
    let report = run_smoke().expect("smoke runs");

    if std::env::var("SCOOP_SERVE_BLESS_GOLDEN").is_ok() {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::create_dir_all(Path::new(GOLDEN_PATH).parent().expect("has parent"))
            .expect("golden dir");
        std::fs::write(GOLDEN_PATH, json + "\n").expect("golden written");
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }

    let committed = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "no committed golden at {GOLDEN_PATH} ({e}); \
             run once with SCOOP_SERVE_BLESS_GOLDEN=1 to create it"
        )
    });
    let golden: SmokeReport = serde_json::from_str(&committed).expect("golden parses");
    assert_eq!(
        report, golden,
        "serve smoke diverged from the committed golden; if the change is \
         intentional, re-bless with SCOOP_SERVE_BLESS_GOLDEN=1"
    );
}
