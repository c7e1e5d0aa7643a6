//! The build is hermetic by construction: the only registry crates any
//! manifest names are the three that `.cargo/config.toml` patches to
//! stand-ins inside the repository. A dependency added without a stand-in
//! fails here, before it fails on a machine with no network.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const STAND_INS: [&str; 3] = ["bytes", "crossbeam", "parking_lot"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(section, key, value)` for every `key = value` line of a TOML file
/// that keeps one entry per line, as every manifest here does.
fn entries(path: &Path) -> Vec<(String, String, String)> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix('[') {
            section = name.trim_end_matches(']').trim_matches('[').to_string();
        } else if let Some((key, value)) = line.split_once('=') {
            if !line.starts_with('#') {
                out.push((section.clone(), key.trim().to_string(), value.trim().to_string()));
            }
        }
    }
    out
}

fn manifests() -> Vec<PathBuf> {
    let mut found = vec![root().join("Cargo.toml")];
    for dir in fs::read_dir(root().join("crates")).expect("crates/") {
        found.push(dir.expect("dir entry").path().join("Cargo.toml"));
    }
    assert!(found.len() >= 11, "workspace members went missing: {found:?}");
    found
}

#[test]
fn patch_table_is_three_relative_paths_inside_the_repository() {
    let config = entries(&root().join(".cargo/config.toml"));
    let patches: Vec<_> = config.iter().filter(|(s, ..)| s == "patch.crates-io").collect();
    let names: BTreeSet<&str> = patches.iter().map(|(_, k, _)| k.as_str()).collect();
    assert_eq!(names, BTreeSet::from(STAND_INS));
    for (_, name, value) in patches {
        let path = value.split('"').nth(1).unwrap_or_else(|| panic!("{name}: no path in {value}"));
        assert!(Path::new(path).is_relative(), "{name}: {path} must be relative");
        // Cargo resolves config paths against the directory holding `.cargo/`.
        let manifest = root().join(path).join("Cargo.toml");
        assert!(manifest.is_file(), "{name}: {} does not exist", manifest.display());
    }
}

#[test]
fn no_manifest_names_a_registry_crate_without_a_stand_in() {
    for manifest in manifests() {
        for (section, key, value) in entries(&manifest) {
            if !section.ends_with("dependencies") {
                continue;
            }
            let name = key.trim_end_matches(".workspace");
            let in_tree = name.starts_with("mirror-") && (key != name || value.contains("path"));
            assert!(
                in_tree || STAND_INS.contains(&name),
                "{}: [{section}] names `{name}`, which is neither a workspace crate nor one of \
                 the patched stand-ins {STAND_INS:?}",
                manifest.display()
            );
        }
    }
}
