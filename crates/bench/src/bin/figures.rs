//! Regenerates every capture in `results/` (`milback_bench::figures`),
//! asserting the paper's bands before anything is written or compared.
//!
//! ```text
//! figures --out DIR     write every <name>.txt and <name>.csv into DIR
//! figures --check DIR   fail at the first line that differs from DIR, on
//!                       a file DIR lacks, and on one no generator writes
//! ```
//! A band miss, a difference or an I/O error exits 1; other arguments exit 2.

use std::path::Path;
use std::process::ExitCode;

use milback_bench::figures;

/// `Some((check, dir))` for `--check DIR` or `--out DIR`, else `None`.
fn parse(args: &[String]) -> Option<(bool, &Path)> {
    match args {
        [mode, dir] if mode == "--out" || mode == "--check" => {
            Some((mode == "--check", dir.as_ref()))
        }
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((check, dir)) = parse(&args) else {
        eprintln!("usage: figures --out DIR | --check DIR");
        return ExitCode::from(2);
    };
    let run = figures::generate().and_then(|out| {
        print!("{}", out.notes);
        match check {
            true => figures::check(dir, &out.files).map(|()| "checked"),
            false => figures::write(dir, &out.files).map(|()| "wrote"),
        }
        .map(|done| format!("{done} {} files in {}", out.files.len(), dir.display()))
    });
    match run {
        Ok(done) => println!("{done}"),
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn the_two_modes_parse() {
        assert_eq!(parse(&args(&["--out", "d"])), Some((false, Path::new("d"))));
        assert_eq!(
            parse(&args(&["--check", "d"])),
            Some((true, Path::new("d")))
        );
    }

    #[test]
    fn anything_else_is_a_usage_error() {
        for argv in [
            &[][..],
            &["--check"],
            &["--csv", "x.csv"],
            &["--out", "d", "x"],
            &["d"],
        ] {
            assert_eq!(parse(&args(argv)), None, "{argv:?}");
        }
    }
}
