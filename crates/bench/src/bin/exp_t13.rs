//! T13: reliability sensitivity (resume failure injection).
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T13", "Reliability sensitivity", bench::exp_t13)
}
