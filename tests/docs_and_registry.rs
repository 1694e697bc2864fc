//! Documentation/registry consistency: the repo's promises hold.
//!
//! These tests read DESIGN.md, EXPERIMENTS.md and README.md from the
//! workspace root and verify that every crate and example is documented,
//! and that the tables the docs promise really regenerate. That every
//! registered experiment has an EXPERIMENTS.md section is checked next to
//! the registry (`agora-harness`, `registry::tests`).

use std::path::Path;

fn read_doc(name: &str) -> String {
    // Integration tests run with the package root as cwd (crates/core), so
    // walk up to the workspace root.
    let candidates = [
        Path::new(name).to_path_buf(),
        Path::new("../..").join(name),
        Path::new("..").join(name),
    ];
    for c in candidates {
        if let Ok(s) = std::fs::read_to_string(&c) {
            return s;
        }
    }
    panic!("cannot locate {name} from {:?}", std::env::current_dir());
}

/// The package name of every `crates/*/Cargo.toml`, read from disk, so a
/// deleted crate needs no edit here and a new one must be documented.
fn workspace_crate_names() -> Vec<String> {
    // This test belongs to crates/core; its siblings are the workspace.
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/core sits under crates/");
    std::fs::read_dir(crates_dir)
        .expect("crates/ is readable")
        // A directory without a manifest (a stale build output) is no crate.
        .filter_map(|dir| std::fs::read_to_string(dir.ok()?.path().join("Cargo.toml")).ok())
        // `[package]` comes first in every manifest here, so the first
        // `name` line is the package's, not a `[[bin]]`'s or `[[test]]`'s.
        .map(|manifest| {
            manifest
                .lines()
                .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
                .expect("every manifest names its package")
                .to_owned()
        })
        .collect()
}

#[test]
fn design_lists_every_crate() {
    let design = read_doc("DESIGN.md");
    let crates = workspace_crate_names();
    assert!(
        crates.iter().any(|c| c == "agora-sim"),
        "crates/ was not read: {crates:?}"
    );
    for krate in &crates {
        assert!(
            design.contains(&format!("`{krate}`")),
            "DESIGN.md missing `{krate}`"
        );
    }
    // The substitution policy section must exist (the repro ground rules).
    assert!(design.contains("Substitutions"));
    assert!(design.contains("Zooko"));
}

#[test]
fn experiments_doc_numbers_match_t3_exactly() {
    // The one table whose numbers must match the paper digit-for-digit.
    let doc = read_doc("EXPERIMENTS.md");
    let t3 = agora::t3_feasibility();
    for v in ["200", "5000", "400", "500", "80", "210"] {
        assert!(t3.body.contains(v), "harness lost Table 3 value {v}");
        assert!(doc.contains(v), "EXPERIMENTS.md lost Table 3 value {v}");
    }
}

#[test]
fn readme_quickstart_commands_reference_real_examples() {
    let readme = read_doc("README.md");
    for example in [
        "quickstart",
        "table1_taxonomy",
        "table2_storage",
        "table3_feasibility",
        "community_exodus",
        "storage_marketplace",
        "hostless_site",
    ] {
        assert!(
            readme.contains(example),
            "README.md missing example {example}"
        );
    }
}

#[test]
fn table1_registry_covers_paper_categories_fully() {
    use agora::taxonomy::{table1_registry, Problem};
    let reg = table1_registry();
    // Paper row contents, spot-checked against the registry.
    let naming: Vec<&str> = reg
        .iter()
        .filter(|e| e.problem == Problem::Naming)
        .map(|e| e.name)
        .collect();
    assert_eq!(naming, vec!["Namecoin", "Emercoin", "Blockstack"]);
    let web: Vec<&str> = reg
        .iter()
        .filter(|e| e.problem == Problem::WebApplications)
        .map(|e| e.name)
        .collect();
    assert!(web.contains(&"Beaker"));
    assert!(web.contains(&"ZeroNet"));
}
