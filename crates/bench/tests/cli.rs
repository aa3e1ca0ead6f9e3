//! The binary refuses a call it cannot run in full: with no name, an
//! unknown name or a malformed `JORD_BENCH_REQUESTS`, it runs nothing and
//! exits 2, so a typo in a CI step fails the step.

use std::process::{Command, Output};

fn jord_bench(names: &[&str], requests: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_jord-bench"));
    cmd.args(names);
    match requests {
        Some(value) => cmd.env("JORD_BENCH_REQUESTS", value),
        None => cmd.env_remove("JORD_BENCH_REQUESTS"),
    };
    cmd.output().expect("jord-bench starts")
}

#[test]
fn a_missing_or_unknown_name_exits_2_and_lists_the_names() {
    for names in [&[][..], &["fig15"], &["quickstart", "fig15"]] {
        let out = jord_bench(names, None);
        assert_eq!(out.status.code(), Some(2), "{names:?}");
        assert!(out.stdout.is_empty(), "{names:?} ran a program");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for listed in ["table4", "fig14", "host-vma", "scale-out", "engine"] {
            assert!(stderr.contains(listed), "{names:?}: {stderr}");
        }
    }
}

#[test]
fn a_malformed_request_count_exits_2_and_names_the_variable() {
    let out = jord_bench(&["quickstart"], Some("0"));
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "quickstart ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("JORD_BENCH_REQUESTS=\"0\""), "{stderr}");
}
