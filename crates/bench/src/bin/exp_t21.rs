//! T21: PSU conversion-loss sensitivity.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T21", "PSU conversion-loss sensitivity", bench::exp_t21)
}
