//! Captures the toolchain and source revision for the record's host
//! header. Both fall back to "unknown" when the tool is unavailable (a
//! source checkout without `.git` has no commit to report).

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        capture(&rustc, &["--version"])
    );
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        capture("git", &["rev-parse", "--short=12", "HEAD"])
    );
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_default()
    );
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp the commit when the checkout moves; a missing path would
    // make cargo re-run the script on every build, so only watch what exists.
    for watched in ["../.git/HEAD", "../.git/refs"] {
        if std::path::Path::new(watched).exists() {
            println!("cargo:rerun-if-changed={watched}");
        }
    }
}
