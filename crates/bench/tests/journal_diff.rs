//! `obs diff` over the checked-in fixture journal
//! (`tests/fixtures/obs-journal.jsonl`): five steady-state `experiments
//! profile` records followed by one whose `swarm.rounds` self time and
//! wall clock are ~50% higher. The `dsa` binary's `obs diff`, `gc` and
//! `runs` unit tests read the same file.

use dsa_obs::journal::JournalRecord;
use std::path::PathBuf;

fn fixture() -> (Vec<JournalRecord>, usize) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/obs-journal.jsonl");
    dsa_obs::journal::read_file(&path).expect("fixture journal parses")
}

#[test]
fn fixture_parses_as_one_profile_cohort() {
    let (records, skipped) = fixture();
    assert_eq!(skipped, 0, "fixture must contain no corrupt lines");
    assert_eq!(records.len(), 6);
    for r in &records {
        assert_eq!(r.meta.binary, "experiments");
        assert_eq!(r.meta.command, "experiments profile");
        assert_eq!(r.meta.scale.as_deref(), Some("smoke"));
        assert!(r.spans.contains_key("swarm.rounds"));
    }
}

#[test]
fn diff_renders_the_regressed_pair_with_highlights() {
    let (records, _) = fixture();
    let out = dsa_obs::diff::render(&records[4], &records[5], 25.0);
    assert!(out.contains("swarm.rounds"), "{out}");
    assert!(out.contains('!'), "threshold marker missing:\n{out}");
    assert!(out.contains(&records[4].meta.run_id), "{out}");
    assert!(out.contains(&records[5].meta.run_id), "{out}");
}
