//! F2: single-host park/wake power trace.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F2", "Park/wake power trace (S3 vs S5)", bench::exp_f2)
}
