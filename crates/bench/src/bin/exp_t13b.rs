//! T13b: failure-rate overhead (full fault surface, recovery active).
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T13b", "Failure-rate overhead", bench::exp_t13b)
}
