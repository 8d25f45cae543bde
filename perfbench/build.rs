//! Records the toolchain and source revision the benchmark was built
//! from, for the host fingerprint printed with every result.

use std::process::Command;

fn capture(mut cmd: Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let mut version = Command::new(rustc);
    version.arg("-V");
    let version = capture(version).unwrap_or_else(|| "unknown".into());
    // Ask git about the checkout this package sits in, and nothing above it.
    let manifest =
        std::path::PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default());
    let root = manifest.parent().unwrap_or(&manifest).to_path_buf();
    let mut git = Command::new("git");
    git.arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    let commit = capture(git).unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    let head_log = root.join(".git/logs/HEAD");
    if head_log.exists() {
        println!("cargo:rerun-if-changed={}", head_log.display());
    }
}
