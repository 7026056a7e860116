//! F3: break-even idle-gap analysis.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F3", "Break-even idle gap (S3 vs S5)", bench::exp_f3)
}
