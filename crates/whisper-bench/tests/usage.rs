//! A malformed number on the command line is a usage error: the binary
//! exits with status 2 and names the flag, instead of running with a
//! default in its place. Each case fails while parsing its arguments,
//! before any simulation starts.

use std::process::Command;

#[test]
fn malformed_numbers_exit_2_naming_the_flag() {
    let cases: [(&str, &[&str], &str); 3] = [
        (
            env!("CARGO_BIN_EXE_bench_trend"),
            &["--band", "2O"],
            "--band",
        ),
        (
            env!("CARGO_BIN_EXE_sec41_throughput"),
            &["6x"],
            "payload_bytes",
        ),
        (env!("CARGO_BIN_EXE_sec44_smt"), &["sixty"], "bits"),
    ];
    for (exe, args, flag) in cases {
        let out = Command::new(exe)
            .args(args)
            .env("TET_QUIET", "1")
            .output()
            .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{exe}: stderr must name {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{exe} must not run the experiment");
    }
}
