//! F7: flash-crowd responsiveness vs wake latency.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F7", "Responsiveness vs wake latency", bench::exp_f7)
}
