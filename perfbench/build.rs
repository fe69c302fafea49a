//! Records the compiler version and, when the source tree is a git
//! checkout, the commit it was built from, for the run header.
//!
//! The commit is read from the `.git` directory's files (no `git`
//! process), so a plain source export reports `unknown`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let git = manifest.join("..").join(".git");
    println!("cargo:rustc-env=PERFBENCH_GIT={}", git_commit(&git));
}

fn git_commit(git: &Path) -> String {
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return "unknown".into();
    };
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let ref_path = git.join(reference);
    if let Ok(commit) = std::fs::read_to_string(&ref_path) {
        println!("cargo:rerun-if-changed={}", ref_path.display());
        return commit.trim().to_string();
    }
    let packed = git.join("packed-refs");
    if let Ok(text) = std::fs::read_to_string(&packed) {
        println!("cargo:rerun-if-changed={}", packed.display());
        for line in text.lines() {
            if let Some(commit) = line.strip_suffix(reference).map(str::trim) {
                if !commit.is_empty() && !commit.starts_with('#') {
                    return commit.to_string();
                }
            }
        }
    }
    "unknown".into()
}
